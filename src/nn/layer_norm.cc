#include "nn/layer_norm.h"

#include <cmath>

#include "la/elementwise.h"

namespace vfl::nn {

LayerNorm::LayerNorm(std::size_t features, double epsilon)
    : gain_(la::Matrix(1, features, 1.0)),
      bias_(la::Matrix(1, features)),
      epsilon_(epsilon) {}

const la::Matrix& LayerNorm::Forward(const la::Matrix& input) {
  CHECK_EQ(input.cols(), gain_.value.cols());
  la::LayerNormForward(input, gain_.value.RowPtr(0), bias_.value.RowPtr(0),
                       epsilon_, &normalized_, &inv_stddev_, &output_);
  return output_;
}

la::Matrix LayerNorm::InferenceForward(const la::Matrix& input) const {
  CHECK_EQ(input.cols(), gain_.value.cols());
  const std::size_t d = input.cols();
  la::Matrix out(input.rows(), d);
  const double* g = gain_.value.RowPtr(0);
  const double* b = bias_.value.RowPtr(0);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    const double* x = input.RowPtr(r);
    double mean = 0.0;
    for (std::size_t c = 0; c < d; ++c) mean += x[c];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = x[c] - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(d);
    const double inv_stddev = 1.0 / std::sqrt(var + epsilon_);
    double* o = out.RowPtr(r);
    for (std::size_t c = 0; c < d; ++c) {
      o[c] = (x[c] - mean) * inv_stddev * g[c] + b[c];
    }
  }
  return out;
}

void LayerNorm::Backward(la::Matrix* grad, Grads grads) {
  CHECK_EQ(grad->rows(), normalized_.rows());
  CHECK_EQ(grad->cols(), normalized_.cols());
  if (WantsParams(grads)) {
    la::AccumulateColDots(*grad, normalized_, gain_.grad.RowPtr(0));
    la::AccumulateColSums(*grad, bias_.grad.RowPtr(0));
  }
  if (WantsInput(grads)) {
    la::LayerNormBackwardInPlace(normalized_, inv_stddev_,
                                 gain_.value.RowPtr(0), grad);
  }
}

}  // namespace vfl::nn
