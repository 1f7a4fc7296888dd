#include "dependability/reliability.h"

#include <cmath>

#include "common/error.h"

namespace fcm::dependability {

namespace {
void check_unit(double r) {
  FCM_REQUIRE(r >= 0.0 && r <= 1.0, "reliability must be in [0,1]");
}

double binomial_at_least(double p, int n, int k) {
  // P(X >= k), X ~ Binomial(n, p); n is tiny (replication degrees).
  double total = 0.0;
  for (int successes = k; successes <= n; ++successes) {
    double ways = 1.0;
    for (int i = 0; i < successes; ++i) {
      ways = ways * static_cast<double>(n - i) / static_cast<double>(i + 1);
    }
    total += ways * std::pow(p, successes) *
             std::pow(1.0 - p, n - successes);
  }
  return total;
}
}  // namespace

double tmr_reliability(double module_reliability) {
  check_unit(module_reliability);
  const double r = module_reliability;
  return 3.0 * r * r - 2.0 * r * r * r;
}

double nmr_reliability(double module_reliability, int n) {
  check_unit(module_reliability);
  FCM_REQUIRE(n >= 1 && n % 2 == 1, "NMR voting needs an odd module count");
  return binomial_at_least(module_reliability, n, n / 2 + 1);
}

double parallel_reliability(std::span<const double> module_reliabilities) {
  double all_fail = 1.0;
  for (const double r : module_reliabilities) {
    check_unit(r);
    all_fail *= 1.0 - r;
  }
  return 1.0 - all_fail;
}

double series_reliability(std::span<const double> module_reliabilities) {
  double all_work = 1.0;
  for (const double r : module_reliabilities) {
    check_unit(r);
    all_work *= r;
  }
  return all_work;
}

double replicated_process_reliability(double replica_reliability,
                                      int replication) {
  check_unit(replica_reliability);
  FCM_REQUIRE(replication >= 1, "replication degree must be positive");
  if (replication == 1) return replica_reliability;
  if (replication == 2) {
    const double both_fail =
        (1.0 - replica_reliability) * (1.0 - replica_reliability);
    return 1.0 - both_fail;
  }
  const int voters = replication % 2 == 1 ? replication : replication - 1;
  return nmr_reliability(replica_reliability, voters);
}

}  // namespace fcm::dependability
