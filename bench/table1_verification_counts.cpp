// Reproduces paper Table I: the number of blocks each operation's
// verification touches per scheme, measured by instrumenting one
// factorization of each variant.
//
// Paper claim: Online-ABFT verifies O(1) blocks for POTF2/SYRK and O(n)
// for TRSM/GEMM per iteration; Enhanced Online-ABFT verifies O(1), O(n),
// O(n) and O(n^2) respectively, because inputs (not outputs) are checked.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;
  require_flags(argc, argv, {"--metrics-out", "--profile-out"});
  const std::string metrics_path = metrics_out_path(argc, argv);
  const std::string profile_path = profile_out_path(argc, argv);

  print_header(
      "Table I — verification comparison (measured block counts)",
      "One TimingOnly factorization per scheme on Tardis, n = 10240, "
      "B = 256 (40 block columns), K = 1.");

  const auto profile = sim::tardis();
  const int n = 10240;
  const int nb = n / 256;

  abft::VerificationCounters online;
  abft::VerificationCounters enhanced;
  obs::MetricsRegistry online_metrics;
  obs::MetricsRegistry enhanced_metrics;
  {
    sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
    auto opt = variant_options(profile, abft::Variant::Online);
    opt.metrics = &online_metrics;
    auto res = abft::cholesky(m, nullptr, n, opt);
    online = res.verified;
  }
  obs::ProfileReport prof;
  {
    sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
    obs::SpanStore spans;
    if (!profile_path.empty()) m.set_span_store(&spans);
    auto opt = variant_options(profile, abft::Variant::EnhancedOnline);
    opt.metrics = &enhanced_metrics;
    if (!profile_path.empty()) opt.profile = &spans;
    auto res = abft::cholesky(m, nullptr, n, opt);
    enhanced = res.verified;
    if (!profile_path.empty()) prof = sim::build_profile(m, spans);
  }

  auto per_iter = [&](long long total) {
    return Table::num(static_cast<double>(total) / nb, 4);
  };
  Table t({"operation", "online verify", "online blocks (total)",
           "online blocks/iter", "enhanced verify",
           "enhanced blocks (total)", "enhanced blocks/iter"});
  t.add_row({"POTF2", "L", std::to_string(online.potf2_blocks),
             per_iter(online.potf2_blocks), "A",
             std::to_string(enhanced.potf2_blocks),
             per_iter(enhanced.potf2_blocks)});
  t.add_row({"TRSM", "B", std::to_string(online.trsm_blocks),
             per_iter(online.trsm_blocks), "L, B",
             std::to_string(enhanced.trsm_blocks),
             per_iter(enhanced.trsm_blocks)});
  t.add_row({"SYRK", "A", std::to_string(online.syrk_blocks),
             per_iter(online.syrk_blocks), "A, C",
             std::to_string(enhanced.syrk_blocks),
             per_iter(enhanced.syrk_blocks)});
  t.add_row({"GEMM", "B", std::to_string(online.gemm_blocks),
             per_iter(online.gemm_blocks), "B, C, D",
             std::to_string(enhanced.gemm_blocks),
             per_iter(enhanced.gemm_blocks)});
  print_table(t);

  std::cout << "Paper's orders per iteration — Online: O(1), O(n), O(1), "
               "O(n); Enhanced: O(1), O(n), O(n), O(n^2).\n"
            << "Measured blocks/iter above: POTF2 ~1, TRSM ~nb/2, SYRK ~1 "
               "(online) vs ~nb/2 (enhanced), GEMM ~nb/2 (online) vs "
               "~nb^2/6 (enhanced) — the Table I shapes.\n";

  // Optional machine-readable export: the enhanced run's registry with
  // the online run's counters folded in under a distinct prefix.
  obs::MetricsRegistry combined;
  for (const auto& [name, v] : online_metrics.counters()) {
    combined.counter("online." + name) = v;
  }
  for (const auto& [name, v] : enhanced_metrics.counters()) {
    combined.counter("enhanced." + name) = v;
  }
  write_bench_report(metrics_path, "table1_verification_counts",
                     {{"machine", profile.name},
                      {"n", std::to_string(n)},
                      {"nb", std::to_string(nb)}},
                     combined);
  write_bench_profile(profile_path, "table1_verification_counts",
                      {{"machine", profile.name},
                       {"variant", "enhanced"},
                       {"n", std::to_string(n)},
                       {"k", "1"}},
                      prof);
  return 0;
}
