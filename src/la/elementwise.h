#ifndef VFLFIA_LA_ELEMENTWISE_H_
#define VFLFIA_LA_ELEMENTWISE_H_

#include <cstddef>
#include <vector>

#include "la/matrix.h"

namespace vfl::la {

/// The elementwise loops of a training step (activations, bias and LayerNorm
/// passes, the Adam update), dispatched on the same cpuid tier as the GEMM
/// (ActiveKernelPath(), honouring VFLFIA_LA_KERNEL). Every tier compiles one
/// shared scalar source (la/elementwise_loops.h) with its own ISA and
/// -ffp-contract=off: each element sees the same IEEE + - * / sqrt sequence
/// in the same order, and reductions over a row stay sequential, so every
/// tier returns the scalar loop's bits. Outputs are resized as needed.

/// y = max(x, 0) elementwise, with NaN and -0 mapped to +0.
void Relu(const Matrix& x, Matrix* y);

/// grad[i] = y[i] > 0 ? grad[i] : 0, where y is the ReLU's input or output
/// (both give the same mask).
void ReluBackwardInPlace(const Matrix& y, Matrix* grad);

/// grad[i] *= s[i] * (1 - s[i]), where s is the sigmoid's output.
void SigmoidBackwardInPlace(const Matrix& s, Matrix* grad);

/// Adds `row` (width m->cols()) to every row of m in place.
void AddRowBroadcastInPlace(Matrix* m, const double* row);

/// sums[c] += sum over rows of m(r, c), accumulated in row order.
void AccumulateColSums(const Matrix& m, double* sums);

/// sums[c] += sum over rows of a(r, c) * b(r, c), accumulated in row order.
void AccumulateColDots(const Matrix& a, const Matrix& b, double* sums);

/// Row-wise layer normalization: norm = (x - mean) / sqrt(var + epsilon)
/// per row, out = norm * gain + bias; also records each row's
/// 1/sqrt(var + epsilon) for the backward pass.
void LayerNormForward(const Matrix& x, const double* gain, const double* bias,
                      double epsilon, Matrix* norm,
                      std::vector<double>* inv_stddev, Matrix* out);

/// Turns dLoss/dOut of LayerNormForward into dLoss/dIn in place:
/// dx = inv_stddev * (h - mean(h) - norm * mean(h * norm)), h = grad * gain.
void LayerNormBackwardInPlace(const Matrix& norm,
                              const std::vector<double>& inv_stddev,
                              const double* gain, Matrix* grad);

/// The hyper-parameters of one Adam step; `bias1`/`bias2` are the step's
/// bias corrections 1 - beta^t.
struct AdamCoefficients {
  double learning_rate;
  double beta1;
  double beta2;
  double epsilon;
  double weight_decay;
  double bias1;
  double bias2;
};

/// One Adam step (Kingma & Ba 2015) with L2 weight decay over every element
/// of `value`, updating both moment estimates.
void AdamUpdate(const AdamCoefficients& coeffs, const Matrix& grad,
                Matrix* first_moment, Matrix* second_moment, Matrix* value);

namespace internal {

/// One tier's kernels over raw row-major storage.
struct ElementwiseKernels {
  void (*relu)(const double* x, double* y, std::size_t n);
  void (*relu_backward)(const double* y, double* grad, std::size_t n);
  void (*sigmoid_backward)(const double* s, double* grad, std::size_t n);
  void (*add_row_broadcast)(double* m, std::size_t rows, std::size_t cols,
                            const double* row);
  void (*accumulate_col_sums)(const double* m, std::size_t rows,
                              std::size_t cols, double* sums);
  void (*accumulate_col_dots)(const double* a, const double* b,
                              std::size_t rows, std::size_t cols,
                              double* sums);
  void (*layer_norm_forward)(const double* x, std::size_t rows, std::size_t d,
                             const double* gain, const double* bias,
                             double epsilon, double* norm, double* inv_stddev,
                             double* out);
  void (*layer_norm_backward)(const double* norm, const double* inv_stddev,
                              const double* gain, std::size_t rows,
                              std::size_t d, double* grad);
  void (*adam)(const AdamCoefficients& c, const double* grad, double* m,
               double* v, double* value, std::size_t n);
};

/// Per-tier tables; the SIMD ones are null when not compiled in (non-x86).
const ElementwiseKernels* GenericElementwise();
const ElementwiseKernels* Avx2Elementwise();
const ElementwiseKernels* Avx512Elementwise();

}  // namespace internal

}  // namespace vfl::la

#endif  // VFLFIA_LA_ELEMENTWISE_H_
