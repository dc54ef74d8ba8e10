#pragma once

// Minimal dense tensor for the from-scratch neural-network framework that
// replaces the paper's PyTorch dependency. Row-major float storage with an
// explicit shape; just enough structure for the WaveKey encoder/decoder
// stacks (batched 1-D convolutions and dense layers).
//
// Storage comes from a per-thread recycling arena (tensor.cpp): destroyed
// tensors return their buffer to the calling thread's free list and new
// tensors are served from it, so steady-state inference/training performs
// zero heap allocations per step once the working set has been seen
// (asserted by ZeroAllocation tests via tensor_arena_stats()). Shapes are
// stored inline (rank <= 4, no heap), so constructing a Tensor never
// allocates anything *but* its float buffer.
//
// Thread-safety: Tensor is a plain value type with exclusive storage (no
// copy-on-write, no shared buffers). Concurrent const access to one
// instance is safe; any mutation requires external synchronization.
// Concurrent writes to *disjoint element ranges* of one tensor are safe. The
// arena is thread-local, so allocation needs no locks; a buffer released on
// a different thread than it was acquired on simply migrates free lists.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

namespace wavekey::nn {

namespace detail {
/// Acquires a float buffer of at least `n` elements from the calling
/// thread's arena (contents are garbage). Returns the usable capacity in
/// `capacity_out` so release can re-pool the full block.
float* arena_acquire(std::size_t n, std::size_t& capacity_out);
/// Returns a buffer to the calling thread's arena (or frees it when the
/// pool is full or already torn down).
void arena_release(float* p, std::size_t capacity) noexcept;
}  // namespace detail

/// Per-thread tensor-arena counters (monotonic). `heap_allocations` counts
/// buffers that had to come from operator new[]; `pool_reuses` counts
/// buffers served from the recycle pool. A steady-state zero-allocation
/// phase is one where heap_allocations does not advance.
struct TensorArenaStats {
  std::uint64_t heap_allocations = 0;
  std::uint64_t pool_reuses = 0;
  std::uint64_t heap_bytes = 0;  ///< cumulative bytes from the heap
};

/// Snapshot of the calling thread's arena counters.
TensorArenaStats tensor_arena_stats();

/// Frees every pooled buffer of the calling thread (memory pressure valve;
/// counters are unaffected).
void tensor_arena_trim();

/// Inline tensor shape: up to 4 dimensions, no heap. Comparable against
/// std::vector<std::size_t> so call sites and tests keep vector literals.
class Shape {
 public:
  static constexpr std::size_t kMaxRank = 4;

  constexpr Shape() = default;

  Shape(std::initializer_list<std::size_t> dims) {
    if (dims.size() > kMaxRank) throw std::invalid_argument("Shape: rank > 4 unsupported");
    for (std::size_t d : dims) dims_[rank_++] = d;
  }

  /// Implicit on purpose: legacy call sites build std::vector shapes.
  Shape(const std::vector<std::size_t>& dims) {  // NOLINT(google-explicit-constructor)
    if (dims.size() > kMaxRank) throw std::invalid_argument("Shape: rank > 4 unsupported");
    for (std::size_t d : dims) dims_[rank_++] = d;
  }

  std::size_t size() const { return rank_; }
  bool empty() const { return rank_ == 0; }
  std::size_t operator[](std::size_t i) const { return dims_[i]; }
  std::size_t at(std::size_t i) const {
    if (i >= rank_) throw std::out_of_range("Shape::at");
    return dims_[i];
  }
  void push_back(std::size_t d) {
    if (rank_ >= kMaxRank) throw std::invalid_argument("Shape: rank > 4 unsupported");
    dims_[rank_++] = d;
  }

  const std::size_t* begin() const { return dims_.data(); }
  const std::size_t* end() const { return dims_.data() + rank_; }

  /// Product of the dimensions (1 for rank 0, matching the old vector code).
  std::size_t count() const {
    std::size_t n = 1;
    for (std::size_t i = 0; i < rank_; ++i) n *= dims_[i];
    return n;
  }

  std::vector<std::size_t> to_vector() const { return {begin(), end()}; }

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.rank_ == b.rank_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Shape& a, const std::vector<std::size_t>& b) {
    return a.rank_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const std::vector<std::size_t>& a, const Shape& b) { return b == a; }

 private:
  std::array<std::size_t, kMaxRank> dims_{};
  std::size_t rank_ = 0;
};

/// Dense row-major float tensor. Shapes used in practice:
///   [N, C, L]  batched multi-channel series (conv layers)
///   [N, F]     batched feature vectors (dense / batch-norm layers)
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(const Shape& shape) { resize(shape); }

  Tensor(std::initializer_list<std::size_t> shape) : Tensor(Shape(shape)) {}

  explicit Tensor(const std::vector<std::size_t>& shape) : Tensor(Shape(shape)) {}

  /// Tensor of the given shape with *indeterminate* contents — for outputs
  /// that are fully overwritten (GEMM destinations, bias-initialized
  /// accumulators). Never read before writing.
  static Tensor uninitialized(const Shape& shape) {
    Tensor t;
    t.resize_uninitialized(shape);
    return t;
  }

  ~Tensor() {
    if (data_ != nullptr) detail::arena_release(data_, capacity_);
  }

  Tensor(const Tensor& o) : shape_(o.shape_), size_(o.size_) {
    if (size_ > 0) {
      data_ = detail::arena_acquire(size_, capacity_);
      std::copy(o.data_, o.data_ + size_, data_);
    }
  }

  Tensor& operator=(const Tensor& o) {
    if (this == &o) return *this;
    reserve_discard(o.size_);
    shape_ = o.shape_;
    size_ = o.size_;
    if (size_ > 0) std::copy(o.data_, o.data_ + size_, data_);
    return *this;
  }

  Tensor(Tensor&& o) noexcept
      : shape_(o.shape_), data_(o.data_), size_(o.size_), capacity_(o.capacity_) {
    o.data_ = nullptr;
    o.size_ = o.capacity_ = 0;
    o.shape_ = Shape();
  }

  Tensor& operator=(Tensor&& o) noexcept {
    if (this == &o) return *this;
    if (data_ != nullptr) detail::arena_release(data_, capacity_);
    shape_ = o.shape_;
    data_ = o.data_;
    size_ = o.size_;
    capacity_ = o.capacity_;
    o.data_ = nullptr;
    o.size_ = o.capacity_ = 0;
    o.shape_ = Shape();
    return *this;
  }

  /// Reshapes in place to a zero-filled tensor, reusing the existing buffer
  /// when its capacity suffices.
  void resize(const Shape& shape) {
    resize_uninitialized(shape);
    std::fill(data_, data_ + size_, 0.0f);
  }

  /// Reshapes in place without touching the contents (garbage when the call
  /// grows the tensor or the buffer is fresh). Reuses capacity.
  void resize_uninitialized(const Shape& shape) {
    const std::size_t n = shape.count();
    reserve_discard(n);
    shape_ = shape;
    size_ = n;
  }

  static std::size_t count(const Shape& shape) { return shape.count(); }

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const { return shape_.at(i); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<float> data() { return {data_, size_}; }
  std::span<const float> data() const { return {data_, size_}; }
  float* raw() { return data_; }
  const float* raw() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D accessor for [N, F] tensors.
  float& at2(std::size_t n, std::size_t f) { return data_[n * shape_[1] + f]; }
  float at2(std::size_t n, std::size_t f) const { return data_[n * shape_[1] + f]; }

  /// 3-D accessor for [N, C, L] tensors.
  float& at3(std::size_t n, std::size_t c, std::size_t l) {
    return data_[(n * shape_[1] + c) * shape_[2] + l];
  }
  float at3(std::size_t n, std::size_t c, std::size_t l) const {
    return data_[(n * shape_[1] + c) * shape_[2] + l];
  }

  /// Returns a tensor with the same data reinterpreted under a new shape of
  /// equal element count. Throws std::invalid_argument otherwise.
  Tensor reshaped(const Shape& new_shape) const {
    if (new_shape.count() != size_) throw std::invalid_argument("Tensor::reshaped: size mismatch");
    Tensor t = *this;
    t.shape_ = new_shape;
    return t;
  }
  Tensor reshaped(std::initializer_list<std::size_t> new_shape) const {
    return reshaped(Shape(new_shape));
  }

  void fill(float v) { std::fill(data_, data_ + size_, v); }

  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

 private:
  /// Ensures capacity for n elements, discarding current contents.
  void reserve_discard(std::size_t n) {
    if (capacity_ >= n) return;
    if (data_ != nullptr) detail::arena_release(data_, capacity_);
    data_ = nullptr;
    capacity_ = 0;
    if (n > 0) data_ = detail::arena_acquire(n, capacity_);
  }

  Shape shape_;
  float* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace wavekey::nn
