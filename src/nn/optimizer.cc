#include "nn/optimizer.h"

#include <cmath>

#include "la/elementwise.h"

namespace vfl::nn {

Sgd::Sgd(std::vector<Parameter*> params, double learning_rate, double momentum,
         double weight_decay)
    : Optimizer(std::move(params)),
      learning_rate_(learning_rate),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.reserve(params_.size());
  for (const Parameter* p : params_) {
    velocity_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Sgd::Step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    double* value = p->value.data();
    const double* grad = p->grad.data();
    double* vel = velocity_[i].data();
    for (std::size_t j = 0; j < p->value.size(); ++j) {
      const double g = grad[j] + weight_decay_ * value[j];
      vel[j] = momentum_ * vel[j] + g;
      value[j] -= learning_rate_ * vel[j];
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, double learning_rate, double beta1,
           double beta2, double epsilon, double weight_decay)
    : Optimizer(std::move(params)),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  first_moment_.reserve(params_.size());
  second_moment_.reserve(params_.size());
  for (const Parameter* p : params_) {
    first_moment_.emplace_back(p->value.rows(), p->value.cols());
    second_moment_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  ++step_count_;
  const la::AdamCoefficients coeffs{
      learning_rate_, beta1_, beta2_, epsilon_, weight_decay_,
      1.0 - std::pow(beta1_, step_count_), 1.0 - std::pow(beta2_, step_count_)};
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    la::AdamUpdate(coeffs, p->grad, &first_moment_[i], &second_moment_[i],
                   &p->value);
  }
}

}  // namespace vfl::nn
