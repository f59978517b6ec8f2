#ifndef IAM_NN_KERNEL_ARMS_H_
#define IAM_NN_KERNEL_ARMS_H_

#include <string_view>

#include "nn/kernels.h"

// Internal to the kernel layer: the per-instruction-set builds ("arms") of
// the hot kernels that kernels.cc chooses between at run time. The public
// entry points in kernels.h run ChosenArm(); tests include this header to
// run every arm the CPU supports against the reference kernels and against
// each other. All arms give bit-identical results (DESIGN.md §10).
namespace iam::nn::internal {

// One arm: the five hot public kernels, compiled for one instruction set.
// Each entry has exactly the public function's signature and semantics.
struct KernelArm {
  const char* isa;  // "avx512", "avx2" or "sse" (the portable arm)
  decltype(&LinearForward) linear_forward;
  decltype(&LinearReluForward) linear_relu_forward;
  decltype(&LinearForwardT) linear_forward_t;
  decltype(&SparseLinearForward) sparse_linear_forward;
  decltype(&LinearBackward) linear_backward;
};

// The arm named `isa`, or nullptr when this build has no such arm or the
// CPU cannot run it.
const KernelArm* FindArm(std::string_view isa);

// The widest arm the CPU runs, chosen from CPUID on the first call. That
// call also sets the gauge iam_nn_kernel_isa{isa="<name>"} to 1.
const KernelArm& ChosenArm();

}  // namespace iam::nn::internal

#endif  // IAM_NN_KERNEL_ARMS_H_
