#include "core/influence.h"

#include "common/error.h"

namespace fcm::core {

namespace {
std::uint64_t pair_key(std::size_t from, std::size_t to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}
}  // namespace

const char* to_string(FactorKind kind) noexcept {
  switch (kind) {
    case FactorKind::kParameterPassing:
      return "parameter-passing";
    case FactorKind::kGlobalVariables:
      return "global-variables";
    case FactorKind::kSharedMemory:
      return "shared-memory";
    case FactorKind::kMessagePassing:
      return "message-passing";
    case FactorKind::kTiming:
      return "timing";
    case FactorKind::kResourceContention:
      return "resource-contention";
    case FactorKind::kOther:
      return "other";
  }
  return "?";
}

std::optional<IsolationTechnique> mitigation_for(FactorKind kind) noexcept {
  switch (kind) {
    case FactorKind::kParameterPassing:
      return IsolationTechnique::kParameterChecking;
    case FactorKind::kGlobalVariables:
      return IsolationTechnique::kInformationHiding;
    case FactorKind::kSharedMemory:
      return IsolationTechnique::kMemorySeparation;
    case FactorKind::kMessagePassing:
      return IsolationTechnique::kMessageChecking;
    case FactorKind::kTiming:
      return IsolationTechnique::kPreemptiveScheduling;
    case FactorKind::kResourceContention:
      return IsolationTechnique::kResourceQuotas;
    case FactorKind::kOther:
      return std::nullopt;
  }
  return std::nullopt;
}

Probability InfluenceFactor::probability() const noexcept {
  // Eq. 1: p_i = p_{i,1} * p_{i,2} * p_{i,3}.
  return occurrence.both(transmission).both(effect);
}

Probability InfluenceFactor::probability(
    const IsolationConfig& source_isolation) const noexcept {
  const auto technique = mitigation_for(kind);
  double p2 = transmission.value();
  if (technique && source_isolation.enabled(*technique)) {
    p2 *= source_isolation.factor(*technique);
  }
  return occurrence.both(Probability::clamped(p2)).both(effect);
}

std::size_t InfluenceModel::add_member(FcmId id, std::string name) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].id == id) return i;
  }
  members_.push_back(Member{id, std::move(name)});
  return members_.size() - 1;
}

FcmId InfluenceModel::member(std::size_t index) const {
  FCM_REQUIRE(index < members_.size(), "member index out of range");
  return members_[index].id;
}

const std::string& InfluenceModel::member_name(std::size_t index) const {
  FCM_REQUIRE(index < members_.size(), "member index out of range");
  return members_[index].name;
}

std::size_t InfluenceModel::index_of(FcmId id) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].id == id) return i;
  }
  throw NotFound("FCM is not a member of this influence model");
}

const InfluenceModel::PairData* InfluenceModel::pair(FcmId from,
                                                     FcmId to) const {
  const auto it = pairs_.find(pair_key(index_of(from), index_of(to)));
  return it == pairs_.end() ? nullptr : &it->second;
}

InfluenceModel::PairData& InfluenceModel::pair_mutable(FcmId from, FcmId to) {
  FCM_REQUIRE(from != to, "an FCM does not influence itself in the model");
  return pairs_[pair_key(index_of(from), index_of(to))];
}

void InfluenceModel::add_factor(FcmId from, FcmId to, InfluenceFactor factor) {
  PairData& data = pair_mutable(from, to);
  FCM_REQUIRE(!data.direct.has_value(),
              "pair already carries a direct influence value");
  data.factors.push_back(std::move(factor));
}

void InfluenceModel::set_direct(FcmId from, FcmId to, Probability influence) {
  PairData& data = pair_mutable(from, to);
  FCM_REQUIRE(data.factors.empty(),
              "pair already carries influence factors");
  data.direct = influence;
}

Probability InfluenceModel::combined(const PairData& data) {
  if (data.direct) return *data.direct;
  std::vector<Probability> ps;
  ps.reserve(data.factors.size());
  for (const InfluenceFactor& f : data.factors) {
    ps.push_back(f.probability());
  }
  return any_of(ps);  // Eq. 2
}

Probability InfluenceModel::influence(FcmId from, FcmId to) const {
  const PairData* data = pair(from, to);
  return data == nullptr ? Probability::zero() : combined(*data);
}

Probability InfluenceModel::influence(FcmId from, FcmId to,
                                      const IsolationConfig& isolation) const {
  const PairData* data = pair(from, to);
  if (data == nullptr) return Probability::zero();
  if (data->direct) return *data->direct;
  std::vector<Probability> ps;
  ps.reserve(data->factors.size());
  for (const InfluenceFactor& f : data->factors) {
    ps.push_back(f.probability(isolation));
  }
  return any_of(ps);
}

const std::vector<InfluenceFactor>& InfluenceModel::factors(FcmId from,
                                                            FcmId to) const {
  static const std::vector<InfluenceFactor> kEmpty;
  const PairData* data = pair(from, to);
  return data == nullptr ? kEmpty : data->factors;
}

double InfluenceModel::mutual_influence(FcmId a, FcmId b) const {
  return influence(a, b).value() + influence(b, a).value();
}

graph::Digraph InfluenceModel::to_graph() const {
  graph::Digraph g;
  for (const Member& m : members_) g.add_node(m.name);
  for_each_pair([&g](std::size_t from, std::size_t to, Probability p,
                     const std::vector<InfluenceFactor>& factors) {
    std::string label;
    for (const InfluenceFactor& f : factors) {
      if (!label.empty()) label += ',';
      label += to_string(f.kind);
    }
    g.add_edge(static_cast<graph::NodeIndex>(from),
               static_cast<graph::NodeIndex>(to), p.value(),
               std::move(label));
  });
  return g;
}

graph::Matrix InfluenceModel::to_matrix() const {
  graph::Matrix m(members_.size());
  for_each_pair([&m](std::size_t from, std::size_t to, Probability p,
                     const std::vector<InfluenceFactor>&) {
    m.at(from, to) = p.value();
  });
  return m;
}

}  // namespace fcm::core
