// Closed-form reliability of replicated configurations.
//
// The paper's FT attribute prescribes replication degrees (simplex, duplex,
// TMR); these closed forms are both the design-time predictions the
// framework quotes and the oracles the Monte Carlo evaluation is property-
// tested against.
#pragma once

#include <span>

namespace fcm::dependability {

/// Majority-voted triple modular redundancy: 3r² − 2r³.
double tmr_reliability(double module_reliability);

/// Majority-voted N-modular redundancy (n odd): P(> n/2 of n survive).
double nmr_reliability(double module_reliability, int n);

/// Fail-stop parallel redundancy: survives while at least one of the
/// modules works, 1 − Π(1 − r_i). Duplex (FT=2) uses this with two equal
/// modules.
double parallel_reliability(std::span<const double> module_reliabilities);

/// Series system: Π r_i (every module needed).
double series_reliability(std::span<const double> module_reliabilities);

/// Reliability delivered by one process given per-replica reliability and
/// the paper's FT semantics: 1 -> simplex, 2 -> fail-stop duplex,
/// >= 3 -> majority-voted NMR (even degrees round down to the nearest odd
/// voting quorum).
double replicated_process_reliability(double replica_reliability,
                                      int replication);

}  // namespace fcm::dependability
