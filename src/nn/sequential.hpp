#pragma once

// Sequential container for layer stacks plus model (de)serialization.
// Loading requires a structurally identical model (the caller rebuilds the
// architecture, then streams weights in); each layer validates its own
// hyperparameters against the stream, so an architecture mismatch is a
// loud error rather than silent corruption.
//
// Thread-safety: externally synchronized, like the layers it contains —
// forward/backward mutate per-layer activation caches, so one Sequential
// must be driven by one thread at a time (see layer.hpp and DESIGN.md §7).
// Distinct Sequential instances are fully independent.

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hpp"

namespace wavekey::nn {

class Sequential {
 public:
  Sequential() = default;

  // Move-only: layers own mutable training state.
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Constructs a layer in place and appends it; returns a reference typed
  /// as the concrete layer for later direct access (e.g. pruning surgery).
  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Full forward pass.
  Tensor forward(const Tensor& input, bool training);

  /// Full backward pass; returns dL/d(input).
  Tensor backward(const Tensor& grad_output);

  /// All learnable parameters in layer order.
  std::vector<Param> params();

  /// Number of scalar parameters (for reporting).
  std::size_t num_parameters();

  /// Writes "type-tag + payload" per layer.
  void save(std::ostream& os) const;

  /// Reads weights into this model; throws std::runtime_error if the stream
  /// does not match this architecture.
  void load(std::istream& is);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace wavekey::nn
