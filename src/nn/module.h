#ifndef VFLFIA_NN_MODULE_H_
#define VFLFIA_NN_MODULE_H_

#include <memory>
#include <vector>

#include "la/matrix.h"

namespace vfl::nn {

/// A trainable tensor: value plus accumulated gradient of the loss w.r.t. it.
struct Parameter {
  la::Matrix value;
  la::Matrix grad;

  explicit Parameter(la::Matrix v)
      : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.Fill(0.0); }
};

/// Which gradients one Backward() call must produce. Each product a layer
/// skips is one the caller would never read.
enum class Grads {
  /// Parameter gradients and dLoss/dInput (gradient checks, hidden layers).
  kParamsAndInput,
  /// Parameter gradients only: the network's first layer under training,
  /// whose input gradient nobody reads (no dY * W^T).
  kParamsOnly,
  /// dLoss/dInput only: back-propagating through a *frozen* model, as GRNA
  /// does into its generator (Sec. V-A of the paper). Frozen means the
  /// parameters are never stepped, so their gradients are not computed
  /// (no X^T * dY, no bias or LayerNorm gain/bias sums) and every
  /// Parameter::grad stays as it was.
  kInputOnly,
};

inline bool WantsParams(Grads grads) { return grads != Grads::kInputOnly; }
inline bool WantsInput(Grads grads) { return grads != Grads::kParamsOnly; }

/// Base class of every network layer. Forward() writes the layer output into
/// a buffer the layer owns, whose capacity is reused across steps, and
/// caches what Backward() needs; a training loop pairs one Forward with at
/// most one Backward per layer. Backward() turns dLoss/dOutput into
/// dLoss/dInput in place, computing only the gradients the caller asks for.
class Module;
using ModulePtr = std::unique_ptr<Module>;

class Module {
 public:
  virtual ~Module() = default;

  /// Maps a batch (rows = samples) to the layer output, written into a
  /// layer-owned buffer that stays valid until the next Forward. The layer
  /// may keep a reference to `input` for Backward: the input must outlive
  /// the matching Backward call unchanged.
  virtual const la::Matrix& Forward(const la::Matrix& input) = 0;

  /// Forward pass that touches no mutable layer state: no caches, inference
  /// behaviour for mode-dependent layers (dropout = identity). Safe to call
  /// concurrently from many threads on one layer object — the serving path's
  /// contract (PredictionServer workers share one model).
  virtual la::Matrix InferenceForward(const la::Matrix& input) const = 0;

  /// `*grad` holds dLoss/dOutput of the last Forward. Accumulates
  /// dLoss/dParams into each Parameter::grad when WantsParams(grads), and
  /// leaves dLoss/dInput in `*grad` when WantsInput(grads); with
  /// kParamsOnly, `*grad` is left unspecified.
  virtual void Backward(la::Matrix* grad, Grads grads) = 0;

  /// Deep copy of the layer: parameters and configuration; transient
  /// forward/backward caches may be copied or reset. Lets each worker
  /// thread snapshot a network instead of racing on shared caches.
  virtual ModulePtr Clone() const = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Toggles training-time behaviour (dropout). Default: no-op.
  virtual void SetTraining(bool /*training*/) {}

  /// Zeroes all parameter gradients.
  void ZeroGrad() {
    for (Parameter* p : Parameters()) p->ZeroGrad();
  }
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_MODULE_H_
