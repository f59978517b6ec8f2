#ifndef IAM_PERFBENCH_LOADGEN_H_
#define IAM_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/status.h"

namespace iam::perfbench {

// One frame of an open-loop schedule.
struct Send {
  double due_s = 0.0;  // offset from the start of the run
  int conn = 0;        // connection index
  serve::FrameType type = serve::FrameType::kEstimate;
  std::string payload;
  int tag = -1;  // caller's label (query-pool index for estimates)
};

// What happened to one scheduled frame.
struct Outcome {
  bool sent = false;
  bool answered = false;
  double due_s = 0.0;
  double sent_s = 0.0;  // offsets from the start of the run
  double recv_s = 0.0;
  serve::FrameType reply = serve::FrameType::kError;
  // kEstimateOk replies only.
  double selectivity = 0.0;
  uint64_t model_version = 0;
  bool decoded = false;  // kEstimateOk payload parsed

  // Time from when the frame was due to when its reply arrived in order.
  double LatencyMs() const { return (recv_s - due_s) * 1e3; }
  // How late the generator sent it.
  double LateMs() const { return (sent_s - due_s) * 1e3; }
};

// Open-loop load generator: ONE thread, a few pipelined non-blocking
// connections. Frames are sent when due whether or not earlier replies have
// arrived, so a server stall delays every later reply and shows in the
// latencies, which are timed from each frame's due time. Replies pair with
// requests positionally per connection (the server answers in submission
// order).
class OpenLoop {
 public:
  ~OpenLoop();
  OpenLoop() = default;
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  Status Connect(int port, int connections);

  // Called after each reply with (schedule index, outcome, now offset).
  // Returning true stops sending: nothing further in the schedule goes out,
  // but replies already owed are still collected.
  using OnReply = std::function<bool(size_t, const Outcome&, double)>;

  // Runs `schedule` (sorted by due_s) and returns one outcome per frame.
  // Gives up on replies still missing `drain_timeout_s` after sending
  // stopped; those frames stay !answered.
  std::vector<Outcome> Run(const std::vector<Send>& schedule,
                           const OnReply& on_reply,
                           double drain_timeout_s = 10.0);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    std::vector<size_t> pending;  // schedule indices awaiting replies
    size_t pending_head = 0;
  };
  bool Flush(Conn& c);
  void CloseAll();

  std::vector<Conn> conns_;
};

}  // namespace iam::perfbench

#endif  // IAM_PERFBENCH_LOADGEN_H_
