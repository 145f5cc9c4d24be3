// The one source of the elementwise kernels declared in la/elementwise.h.
// Each tier's translation unit (elementwise.cc, elementwise_avx2.cc,
// elementwise_avx512.cc) includes this file inside an anonymous namespace in
// vfl::la::internal, after <cmath> and la/elementwise.h, and compiles it with
// its own ISA flags plus -ffp-contract=off: the compiler vectorizes the
// per-element loops for that ISA but may not fuse or reorder the arithmetic,
// so every tier returns the scalar loop's bits. Reductions along a row (the
// LayerNorm means) stay sequential for the same reason. Keep every
// expression's operation order as written: the bit-identity tests in
// la_kernel_dispatch_test compare each tier against these loops as scalars.
//
// Deliberately no include guard and no #include: this file must be
// textually included, once per tier, inside an anonymous namespace.

void ReluLoop(const double* __restrict x, double* __restrict y,
              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void ReluBackwardLoop(const double* __restrict y, double* __restrict grad,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) grad[i] = y[i] > 0.0 ? grad[i] : 0.0;
}

void SigmoidBackwardLoop(const double* __restrict s, double* __restrict grad,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) grad[i] = grad[i] * (s[i] * (1.0 - s[i]));
}

void AddRowBroadcastLoop(double* __restrict m, std::size_t rows,
                         std::size_t cols, const double* __restrict row) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* __restrict dst = m + r * cols;
    for (std::size_t c = 0; c < cols; ++c) dst[c] += row[c];
  }
}

void AccumulateColSumsLoop(const double* __restrict m, std::size_t rows,
                           std::size_t cols, double* __restrict sums) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* __restrict src = m + r * cols;
    for (std::size_t c = 0; c < cols; ++c) sums[c] += src[c];
  }
}

void AccumulateColDotsLoop(const double* __restrict a,
                           const double* __restrict b, std::size_t rows,
                           std::size_t cols, double* __restrict sums) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* __restrict ar = a + r * cols;
    const double* __restrict br = b + r * cols;
    for (std::size_t c = 0; c < cols; ++c) sums[c] += ar[c] * br[c];
  }
}

void LayerNormForwardLoop(const double* __restrict x, std::size_t rows,
                          std::size_t d, const double* __restrict gain,
                          const double* __restrict bias, double epsilon,
                          double* __restrict norm,
                          double* __restrict inv_stddev,
                          double* __restrict out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* __restrict xr = x + r * d;
    double* __restrict nr = norm + r * d;
    double* __restrict outr = out + r * d;
    double mean = 0.0;
    for (std::size_t c = 0; c < d; ++c) mean += xr[c];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = xr[c] - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(d);
    const double inv = 1.0 / std::sqrt(var + epsilon);
    inv_stddev[r] = inv;
    for (std::size_t c = 0; c < d; ++c) {
      nr[c] = (xr[c] - mean) * inv;
      outr[c] = nr[c] * gain[c] + bias[c];
    }
  }
}

void LayerNormBackwardLoop(const double* __restrict norm,
                           const double* __restrict inv_stddev,
                           const double* __restrict gain, std::size_t rows,
                           std::size_t d, double* __restrict grad) {
  const double inv_d = 1.0 / static_cast<double>(d);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* __restrict nr = norm + r * d;
    double* __restrict gr = grad + r * d;
    double mean_h = 0.0, mean_h_norm = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double h = gr[c] * gain[c];
      mean_h += h;
      mean_h_norm += h * nr[c];
    }
    mean_h *= inv_d;
    mean_h_norm *= inv_d;
    const double inv = inv_stddev[r];
    for (std::size_t c = 0; c < d; ++c) {
      const double h = gr[c] * gain[c];
      gr[c] = inv * (h - mean_h - nr[c] * mean_h_norm);
    }
  }
}

void AdamLoop(const AdamCoefficients& coeffs, const double* __restrict grad,
              double* __restrict m, double* __restrict v,
              double* __restrict value, std::size_t n) {
  const double lr = coeffs.learning_rate;
  const double beta1 = coeffs.beta1;
  const double beta2 = coeffs.beta2;
  const double epsilon = coeffs.epsilon;
  const double weight_decay = coeffs.weight_decay;
  const double bias1 = coeffs.bias1;
  const double bias2 = coeffs.bias2;
  for (std::size_t j = 0; j < n; ++j) {
    const double g = grad[j] + weight_decay * value[j];
    m[j] = beta1 * m[j] + (1.0 - beta1) * g;
    v[j] = beta2 * v[j] + (1.0 - beta2) * g * g;
    const double m_hat = m[j] / bias1;
    const double v_hat = v[j] / bias2;
    value[j] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

constexpr ElementwiseKernels kElementwiseLoops{
    &ReluLoop,           &ReluBackwardLoop,      &SigmoidBackwardLoop,
    &AddRowBroadcastLoop, &AccumulateColSumsLoop, &AccumulateColDotsLoop,
    &LayerNormForwardLoop, &LayerNormBackwardLoop, &AdamLoop};
