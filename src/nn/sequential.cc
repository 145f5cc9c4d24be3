#include "nn/sequential.h"

namespace vfl::nn {

const la::Matrix& Sequential::Forward(const la::Matrix& input) {
  const la::Matrix* activation = &input;
  for (const ModulePtr& layer : layers_) {
    activation = &layer->Forward(*activation);
  }
  return *activation;
}

la::Matrix Sequential::InferenceForward(const la::Matrix& input) const {
  la::Matrix activation = input;
  for (const ModulePtr& layer : layers_) {
    activation = layer->InferenceForward(activation);
  }
  return activation;
}

void Sequential::Backward(la::Matrix* grad, Grads grads) {
  const Grads inner =
      WantsParams(grads) ? Grads::kParamsAndInput : Grads::kInputOnly;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->Backward(grad, i == 0 ? grads : inner);
  }
}

std::vector<Parameter*> Sequential::Parameters() {
  std::vector<Parameter*> params;
  for (const ModulePtr& layer : layers_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::SetTraining(bool training) {
  for (const ModulePtr& layer : layers_) layer->SetTraining(training);
}

ModulePtr Sequential::Clone() const {
  auto clone = std::make_unique<Sequential>();
  for (const ModulePtr& layer : layers_) clone->Append(layer->Clone());
  return clone;
}

}  // namespace vfl::nn
