#include "nn/dropout.h"

namespace vfl::nn {

Dropout::Dropout(double rate, core::Rng& rng) : rate_(rate), rng_(rng.Fork()) {
  CHECK_GE(rate, 0.0);
  CHECK_LT(rate, 1.0);
}

const la::Matrix& Dropout::Forward(const la::Matrix& input) {
  identity_ = !training_ || rate_ == 0.0;
  if (identity_) return input;
  const double keep_scale = 1.0 / (1.0 - rate_);
  mask_.Resize(input.rows(), input.cols());
  output_.Resize(input.rows(), input.cols());
  double* mask = mask_.data();
  double* out = output_.data();
  const double* in = input.data();
  for (std::size_t i = 0; i < mask_.size(); ++i) {
    mask[i] = rng_.Bernoulli(rate_) ? 0.0 : keep_scale;
    out[i] = in[i] * mask[i];
  }
  return output_;
}

void Dropout::Backward(la::Matrix* grad, Grads grads) {
  if (identity_ || !WantsInput(grads)) return;
  CHECK_EQ(grad->rows(), mask_.rows());
  CHECK_EQ(grad->cols(), mask_.cols());
  double* g = grad->data();
  const double* mask = mask_.data();
  for (std::size_t i = 0; i < grad->size(); ++i) g[i] *= mask[i];
}

}  // namespace vfl::nn
