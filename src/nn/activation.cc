#include "nn/activation.h"

#include <algorithm>
#include <cmath>

#include "la/elementwise.h"
#include "la/matrix_ops.h"

namespace vfl::nn {

double SigmoidScalar(double x) {
  // Split on sign so the exponential never overflows.
  if (x >= 0.0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

const la::Matrix& Sigmoid::Forward(const la::Matrix& input) {
  la::MapInto(input, SigmoidScalar, &output_);
  return output_;
}

la::Matrix Sigmoid::InferenceForward(const la::Matrix& input) const {
  return la::Map(input, SigmoidScalar);
}

void Sigmoid::Backward(la::Matrix* grad, Grads grads) {
  // d sigma = sigma * (1 - sigma).
  if (WantsInput(grads)) la::SigmoidBackwardInPlace(output_, grad);
}

const la::Matrix& Relu::Forward(const la::Matrix& input) {
  la::Relu(input, &output_);
  return output_;
}

la::Matrix Relu::InferenceForward(const la::Matrix& input) const {
  return la::Map(input, [](double x) { return x > 0.0 ? x : 0.0; });
}

void Relu::Backward(la::Matrix* grad, Grads grads) {
  if (WantsInput(grads)) la::ReluBackwardInPlace(output_, grad);
}

const la::Matrix& Tanh::Forward(const la::Matrix& input) {
  la::MapInto(input, [](double x) { return std::tanh(x); }, &output_);
  return output_;
}

la::Matrix Tanh::InferenceForward(const la::Matrix& input) const {
  return la::Map(input, [](double x) { return std::tanh(x); });
}

void Tanh::Backward(la::Matrix* grad, Grads grads) {
  if (!WantsInput(grads)) return;
  CHECK_EQ(grad->rows(), output_.rows());
  CHECK_EQ(grad->cols(), output_.cols());
  const double* t = output_.data();
  double* g = grad->data();
  for (std::size_t i = 0; i < grad->size(); ++i) {
    g[i] = g[i] * (1.0 - t[i] * t[i]);
  }
}

la::Matrix SoftmaxRows(const la::Matrix& logits) {
  la::Matrix out;
  SoftmaxRowsInto(logits, &out);
  return out;
}

void SoftmaxRowsInto(const la::Matrix& logits, la::Matrix* out) {
  if (out != &logits) out->Resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const double* src = logits.RowPtr(r);
    double* dst = out->RowPtr(r);
    const double row_max =
        *std::max_element(src, src + logits.cols());
    double denom = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      dst[c] = std::exp(src[c] - row_max);
      denom += dst[c];
    }
    for (std::size_t c = 0; c < logits.cols(); ++c) dst[c] /= denom;
  }
}

const la::Matrix& Softmax::Forward(const la::Matrix& input) {
  SoftmaxRowsInto(input, &output_);
  return output_;
}

la::Matrix Softmax::InferenceForward(const la::Matrix& input) const {
  return SoftmaxRows(input);
}

void Softmax::Backward(la::Matrix* grad, Grads grads) {
  if (!WantsInput(grads)) return;
  CHECK_EQ(grad->rows(), output_.rows());
  CHECK_EQ(grad->cols(), output_.cols());
  // dLogit_i = s_i * (dOut_i - sum_j dOut_j * s_j), per row.
  for (std::size_t r = 0; r < grad->rows(); ++r) {
    const double* s = output_.RowPtr(r);
    double* g = grad->RowPtr(r);
    double inner = 0.0;
    for (std::size_t c = 0; c < grad->cols(); ++c) inner += g[c] * s[c];
    for (std::size_t c = 0; c < grad->cols(); ++c) {
      g[c] = s[c] * (g[c] - inner);
    }
  }
}

}  // namespace vfl::nn
