#include "core/predictor.h"

#include "common/string_util.h"

namespace dkf {

Result<KalmanPredictor> KalmanPredictor::Create(const StateModel& model) {
  auto filter_or = model.MakeFilter();
  if (!filter_or.ok()) return filter_or.status();
  return KalmanPredictor(model.name, std::move(filter_or).value());
}

bool KalmanPredictor::StateEquals(const Predictor& other) const {
  const auto* peer = dynamic_cast<const KalmanPredictor*>(&other);
  return peer != nullptr && filter_.StateEquals(peer->filter_);
}

Result<CachedValuePredictor> CachedValuePredictor::Create(size_t dim) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  return CachedValuePredictor(dim);
}

Status CachedValuePredictor::Update(const Vector& value) {
  if (value.size() != cached_.size()) {
    return Status::InvalidArgument(
        StrFormat("value size %zu, expected %zu", value.size(),
                  cached_.size()));
  }
  cached_ = value;
  return Status::OK();
}

bool CachedValuePredictor::StateEquals(const Predictor& other) const {
  const auto* peer = dynamic_cast<const CachedValuePredictor*>(&other);
  if (peer == nullptr || peer->cached_.size() != cached_.size()) return false;
  for (size_t i = 0; i < cached_.size(); ++i) {
    if (cached_[i] != peer->cached_[i]) return false;
  }
  return true;
}

}  // namespace dkf
