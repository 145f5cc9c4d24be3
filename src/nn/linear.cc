#include "nn/linear.h"

#include <cmath>
#include <utility>

#include "la/elementwise.h"
#include "la/matrix_ops.h"

namespace vfl::nn {

namespace {

la::Matrix InitWeight(std::size_t in, std::size_t out, core::Rng& rng,
                      Init init) {
  la::Matrix w(in, out);
  switch (init) {
    case Init::kXavier: {
      const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
      for (std::size_t i = 0; i < w.size(); ++i) {
        w.data()[i] = rng.Uniform(-bound, bound);
      }
      break;
    }
    case Init::kHe: {
      const double stddev = std::sqrt(2.0 / static_cast<double>(in));
      for (std::size_t i = 0; i < w.size(); ++i) {
        w.data()[i] = rng.Gaussian(0.0, stddev);
      }
      break;
    }
    case Init::kZero:
      break;
  }
  return w;
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features,
               core::Rng& rng, Init init)
    : weight_(InitWeight(in_features, out_features, rng, init)),
      bias_(la::Matrix(1, out_features)) {}

const la::Matrix& Linear::Forward(const la::Matrix& input) {
  CHECK_EQ(input.cols(), in_features());
  input_ = &input;
  la::MatMulInto(input, weight_.value, &output_);
  la::AddRowBroadcastInPlace(&output_, bias_.value.RowPtr(0));
  return output_;
}

la::Matrix Linear::InferenceForward(const la::Matrix& input) const {
  CHECK_EQ(input.cols(), in_features());
  la::Matrix out;
  la::MatMulInto(input, weight_.value, &out);
  la::AddRowBroadcastInPlace(&out, bias_.value.RowPtr(0));
  return out;
}

void Linear::Backward(la::Matrix* grad, Grads grads) {
  CHECK_EQ(grad->cols(), out_features());
  if (WantsParams(grads)) {
    CHECK(input_ != nullptr) << "Linear::Backward before Forward";
    CHECK_EQ(grad->rows(), input_->rows());
    // dW += X^T * dY (fused accumulation, no temporary); db += column sums
    // of dY.
    la::MatMulTransposedAInto(*input_, *grad, &weight_.grad,
                              /*accumulate=*/true);
    la::AccumulateColSums(*grad, bias_.grad.RowPtr(0));
  }
  if (WantsInput(grads)) {
    // dX = dY * W^T.
    la::MatMulTransposedBInto(*grad, weight_.value, &grad_input_);
    std::swap(*grad, grad_input_);
  }
}

ModulePtr Linear::Clone() const {
  auto clone = std::make_unique<Linear>(*this);
  clone->input_ = nullptr;  // the clone has not seen this layer's input
  return clone;
}

}  // namespace vfl::nn
