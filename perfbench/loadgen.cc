#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>

#include "common.h"

namespace iam::perfbench {

OpenLoop::~OpenLoop() { CloseAll(); }

void OpenLoop::CloseAll() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
}

Status OpenLoop::Connect(int port, int connections) {
  CloseAll();
  for (int i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IoError(std::strerror(errno));
    conns_.push_back(Conn{});
    conns_.back().fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, serve::AsSockaddr(addr), sizeof(addr)) != 0) {
      return Status::IoError(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return Status::Ok();
}

bool OpenLoop::Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

std::vector<Outcome> OpenLoop::Run(const std::vector<Send>& schedule,
                                   const OnReply& on_reply,
                                   double drain_timeout_s) {
  std::vector<Outcome> outcomes(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    outcomes[i].due_s = schedule[i].due_s;
  }
  for (Conn& c : conns_) {
    c.pending.clear();
    c.pending_head = 0;
  }
  const double start = NowS();
  size_t next = 0;
  bool stopped = false;
  double stopped_at = 0.0;
  bool broken = false;
  std::vector<pollfd> fds(conns_.size());
  while (!broken) {
    double now = NowS() - start;
    while (!stopped && next < schedule.size() &&
           schedule[next].due_s <= now) {
      const Send& s = schedule[next];
      Conn& c = conns_[static_cast<size_t>(s.conn)];
      serve::AppendFrame(&c.out, serve::Frame{s.type, s.payload});
      c.pending.push_back(next);
      outcomes[next].sent = true;
      outcomes[next].sent_s = now;
      ++next;
    }
    if (!stopped && next == schedule.size()) {
      stopped = true;
      stopped_at = now;
    }
    size_t owed = 0;
    for (Conn& c : conns_) {
      if (!Flush(c)) broken = true;
      owed += c.pending.size() - c.pending_head;
    }
    if (stopped && owed == 0) break;
    if (stopped && now - stopped_at > drain_timeout_s) break;

    double wait_s = stopped ? 0.05 : schedule[next].due_s - now;
    if (wait_s < 0.0) wait_s = 0.0;
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns_[i];
      char buf[65536];
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        broken = true;  // server closed: every owed reply stays missing
        break;
      }
      c.in.append(buf, static_cast<size_t>(n));
      size_t off = 0;
      const double recv_now = NowS() - start;
      while (true) {
        serve::Frame frame;
        const Result<size_t> used =
            serve::DecodeFrame(std::string_view(c.in).substr(off), &frame);
        if (!used.ok()) {
          broken = true;
          break;
        }
        if (*used == 0) break;
        off += *used;
        if (c.pending_head == c.pending.size()) {
          broken = true;  // a reply nobody asked for
          break;
        }
        const size_t idx = c.pending[c.pending_head++];
        Outcome& o = outcomes[idx];
        o.answered = true;
        o.recv_s = recv_now;
        o.reply = frame.type;
        if (frame.type == serve::FrameType::kEstimateOk) {
          o.decoded = serve::DecodeEstimatePayload(frame.payload,
                                                   &o.selectivity,
                                                   &o.model_version)
                          .ok();
        }
        if (on_reply && on_reply(idx, o, recv_now) && !stopped) {
          stopped = true;
          stopped_at = recv_now;
        }
      }
      c.in.erase(0, off);
    }
  }
  return outcomes;
}

}  // namespace iam::perfbench
