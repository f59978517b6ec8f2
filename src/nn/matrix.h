#ifndef IAM_NN_MATRIX_H_
#define IAM_NN_MATRIX_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <span>

#include "util/macros.h"

namespace iam::nn {

// Dense row-major float32 matrix. This is the only tensor type the neural
// substrate needs: batches are [batch, features], weights are [out, in].
// Storage is a raw buffer with an explicit capacity so ResizeUninitialized
// can reshape without touching memory — the per-call cost that matters in
// the progressive sampler, where scratch matrices are reshaped per batch.
//
// The buffer is 64-byte aligned (kAlignment): the tiled kernels in
// kernels.h then start every matrix on a cache-line boundary, which keeps
// their vector loads from straddling lines at the buffer head. Row pointers
// are only as aligned as cols allows; the kernels use unaligned vector
// accesses and do not rely on per-row alignment.
//
// Every buffer also ends in kTailSlack readable floats past its capacity,
// zeroed when the buffer is allocated and never written: the kept-list
// kernels load whole weight vectors across the last output of a window, up
// to 15 floats past it on the 16-lane arm, so a window may sit flush
// against the end of the last row (see kernels.h).
class Matrix {
 public:
  static constexpr size_t kAlignment = 64;
  static constexpr size_t kTailSlack = 32;

  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols) : rows_(0), cols_(0) {
    IAM_CHECK(rows >= 0 && cols >= 0);
    ResizeUninitialized(rows, cols);
    Zero();
  }

  Matrix(const Matrix& other) : rows_(0), cols_(0) { *this = other; }
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      ResizeUninitialized(other.rows_, other.cols_);
      // Guard the empty case: memcpy/memset with a null pointer is undefined
      // even for length 0 (the pointers are declared nonnull), and a [0, x]
      // matrix holds no buffer. Caught by IAM_SANITIZE=undefined.
      if (size() != 0) {
        std::memcpy(data_.get(), other.data_.get(), size() * sizeof(float));
      }
    }
    return *this;
  }
  Matrix(Matrix&& other) noexcept
      : rows_(other.rows_),
        cols_(other.cols_),
        capacity_(other.capacity_),
        data_(std::move(other.data_)) {
    other.rows_ = other.cols_ = 0;
    other.capacity_ = 0;
  }
  Matrix& operator=(Matrix&& other) noexcept {
    rows_ = other.rows_;
    cols_ = other.cols_;
    capacity_ = other.capacity_;
    data_ = std::move(other.data_);
    other.rows_ = other.cols_ = 0;
    other.capacity_ = 0;
    return *this;
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return static_cast<size_t>(rows_) * cols_; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  float& at(int r, int c) {
    IAM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    IAM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* row(int r) { return data_.get() + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_.get() + static_cast<size_t>(r) * cols_;
  }
  std::span<float> row_span(int r) { return {row(r), (size_t)cols_}; }
  std::span<const float> row_span(int r) const {
    return {row(r), (size_t)cols_};
  }

  void Zero() {
    // size() == 0 may mean no buffer at all; see operator= for the UB note.
    if (size() != 0) std::memset(data_.get(), 0, size() * sizeof(float));
  }

  // Resizes to [rows, cols], preserving the flat element prefix (vector
  // semantics: existing data up to min(old, new) flat size survives; any
  // growth is zero-filled). Use ResizeUninitialized when the contents are
  // about to be overwritten anyway.
  void Resize(int rows, int cols) {
    const size_t old_size = size();
    ResizeKeep(rows, cols);
    if (size() > old_size) {
      std::memset(data_.get() + old_size, 0,
                  (size() - old_size) * sizeof(float));
    }
  }

  // Resizes to [rows, cols] preserving the flat element prefix, like
  // Resize, but leaves any growth unspecified: for scratch whose existing
  // rows must survive a reshape and whose new rows are written next.
  void ResizeKeep(int rows, int cols) {
    IAM_CHECK(rows >= 0 && cols >= 0);
    const size_t old_size = size();
    const size_t new_size = static_cast<size_t>(rows) * cols;
    if (new_size > capacity_) {
      AlignedBuffer grown(Allocate(new_size));
      if (old_size != 0) {
        std::memcpy(grown.get(), data_.get(), old_size * sizeof(float));
      }
      data_ = std::move(grown);
      capacity_ = new_size;
    }
    rows_ = rows;
    cols_ = cols;
  }

  // Resizes to [rows, cols] leaving the contents unspecified: when the
  // capacity suffices this only updates the shape, otherwise it reallocates
  // without copying or zero-filling. The hot-loop reshape for scratch
  // matrices that are fully overwritten by the caller.
  void ResizeUninitialized(int rows, int cols) {
    IAM_CHECK(rows >= 0 && cols >= 0);
    const size_t new_size = static_cast<size_t>(rows) * cols;
    if (new_size > capacity_) {
      data_.reset(Allocate(new_size));
      capacity_ = new_size;
    }
    rows_ = rows;
    cols_ = cols;
  }

 private:
  struct AlignedDeleter {
    void operator()(float* p) const {
      ::operator delete[](static_cast<void*>(p), std::align_val_t{kAlignment});
    }
  };
  using AlignedBuffer = std::unique_ptr<float[], AlignedDeleter>;

  static float* Allocate(size_t n) {
    float* p = static_cast<float*>(::operator new[](
        (n + kTailSlack) * sizeof(float), std::align_val_t{kAlignment}));
    std::memset(p + n, 0, kTailSlack * sizeof(float));
    return p;
  }

  int rows_;
  int cols_;
  size_t capacity_ = 0;
  AlignedBuffer data_;
};

}  // namespace iam::nn

#endif  // IAM_NN_MATRIX_H_
