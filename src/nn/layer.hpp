#pragma once

// Layer interface of the mini NN framework plus the stateless layers
// (ReLU, Flatten). Explicit forward/backward — no autograd tape — because
// the WaveKey models are small straight-line stacks.
//
// Thread-safety: layers cache activations in forward() and accumulate
// gradients in backward(), so a layer instance is *externally synchronized*:
// never run forward/backward/params on the same instance from two threads.
// Compute is serial: a layer walks its batch in sample order, so every
// cross-sample reduction has one fixed order (DESIGN.md §7.2).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "numeric/rng.hpp"

namespace wavekey::nn {

/// A learnable parameter: the value tensor and its gradient accumulator.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Base class for all layers. Layers own their parameters and the activation
/// cache needed by backward (so forward must precede backward each step).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `training` toggles batch-statistics behaviour.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Backward pass: given dL/d(output), accumulates parameter gradients and
  /// returns dL/d(input). Must be called after forward on the same batch.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// Stable type tag for serialization.
  virtual std::string type_name() const = 0;

  /// Serializes hyperparameters + weights.
  virtual void save(std::ostream& os) const = 0;

  /// Deserializes weights into an already-constructed layer of matching
  /// hyperparameters (construction happens via the registry in serialize.cpp).
  virtual void load(std::istream& is) = 0;
};

/// Rectified linear unit.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "relu"; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

 private:
  Tensor mask_;  // 1 where input > 0
};

/// Collapses [N, C, L] to [N, C*L].
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "flatten"; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

 private:
  Shape input_shape_;
};

/// Reshapes [N, F] to [N, C, L] with F == C*L (entry point into deconv
/// stacks) or back. The batch dimension is preserved.
class Reshape final : public Layer {
 public:
  /// @param per_sample_shape  target shape of one sample (e.g. {C, L})
  explicit Reshape(std::vector<std::size_t> per_sample_shape);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "reshape"; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

 private:
  std::vector<std::size_t> per_sample_shape_;  // fixed at construction
  Shape input_shape_;
};

// --- binary stream helpers shared by the layer implementations ---

void write_u64(std::ostream& os, std::uint64_t v);
std::uint64_t read_u64(std::istream& is);
void write_floats(std::ostream& os, std::span<const float> xs);
void read_floats(std::istream& is, std::span<float> xs);
void write_string(std::ostream& os, const std::string& s);
std::string read_string(std::istream& is);

}  // namespace wavekey::nn
