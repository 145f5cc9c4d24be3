// Elementwise kernels: the portable tier (built like every other TU, plus
// -ffp-contract=off) and the dispatch every caller goes through.
#include "la/elementwise.h"

#include <cmath>

#include "la/cpu_features.h"

namespace vfl::la {

namespace internal {
namespace {
#include "la/elementwise_loops.h"
}  // namespace

const ElementwiseKernels* GenericElementwise() { return &kElementwiseLoops; }

}  // namespace internal

namespace {

/// The active tier's table, falling back toward generic when a tier is not
/// compiled in.
const internal::ElementwiseKernels& Active() {
  switch (ActiveKernelPath()) {
    case KernelPath::kAvx512:
      if (const auto* k = internal::Avx512Elementwise()) return *k;
      [[fallthrough]];
    case KernelPath::kAvx2:
      if (const auto* k = internal::Avx2Elementwise()) return *k;
      [[fallthrough]];
    case KernelPath::kGeneric:
      break;
  }
  return *internal::GenericElementwise();
}

void CheckSameShape(const Matrix& a, const Matrix& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
}

}  // namespace

void Relu(const Matrix& x, Matrix* y) {
  CHECK(y != &x);
  y->Resize(x.rows(), x.cols());
  Active().relu(x.data(), y->data(), x.size());
}

void ReluBackwardInPlace(const Matrix& y, Matrix* grad) {
  CheckSameShape(y, *grad);
  Active().relu_backward(y.data(), grad->data(), grad->size());
}

void SigmoidBackwardInPlace(const Matrix& s, Matrix* grad) {
  CheckSameShape(s, *grad);
  Active().sigmoid_backward(s.data(), grad->data(), grad->size());
}

void AddRowBroadcastInPlace(Matrix* m, const double* row) {
  Active().add_row_broadcast(m->data(), m->rows(), m->cols(), row);
}

void AccumulateColSums(const Matrix& m, double* sums) {
  Active().accumulate_col_sums(m.data(), m.rows(), m.cols(), sums);
}

void AccumulateColDots(const Matrix& a, const Matrix& b, double* sums) {
  CheckSameShape(a, b);
  Active().accumulate_col_dots(a.data(), b.data(), a.rows(), a.cols(), sums);
}

void LayerNormForward(const Matrix& x, const double* gain, const double* bias,
                      double epsilon, Matrix* norm,
                      std::vector<double>* inv_stddev, Matrix* out) {
  CHECK(norm != &x && out != &x && norm != out);
  norm->Resize(x.rows(), x.cols());
  out->Resize(x.rows(), x.cols());
  inv_stddev->resize(x.rows());
  Active().layer_norm_forward(x.data(), x.rows(), x.cols(), gain, bias,
                              epsilon, norm->data(), inv_stddev->data(),
                              out->data());
}

void LayerNormBackwardInPlace(const Matrix& norm,
                              const std::vector<double>& inv_stddev,
                              const double* gain, Matrix* grad) {
  CheckSameShape(norm, *grad);
  CHECK_EQ(inv_stddev.size(), grad->rows());
  Active().layer_norm_backward(norm.data(), inv_stddev.data(), gain,
                               grad->rows(), grad->cols(), grad->data());
}

void AdamUpdate(const AdamCoefficients& coeffs, const Matrix& grad,
                Matrix* first_moment, Matrix* second_moment, Matrix* value) {
  CheckSameShape(grad, *value);
  CheckSameShape(*first_moment, *value);
  CheckSameShape(*second_moment, *value);
  Active().adam(coeffs, grad.data(), first_moment->data(),
                second_moment->data(), value->data(), value->size());
}

}  // namespace vfl::la
