// Ablation (DESIGN.md SS5.1): displacement-threshold anchoring vs the naive
// variance-trigger synchronization. Measures, over a batch of fresh
// sessions, (a) the cross-modal start-time disagreement |t_RFID - t_IMU| and
// (b) the resulting seed bit mismatch, with the anchor enabled and disabled.
// This quantifies why the anchoring exists: without it the two windows are
// tens of milliseconds apart and the seeds diverge.

#include <cmath>

#include "bench/common.hpp"
#include "core/dataset.hpp"
#include "imu/imu_pipeline.hpp"
#include "numeric/stats.hpp"
#include "rfid/rfid_pipeline.hpp"

using namespace wavekey;

namespace {

struct Variant {
  const char* name;
  bool anchor;
};

}  // namespace

int main() {
  bench::print_header("Ablation -- displacement anchoring vs naive variance sync",
                      "DESIGN.md SS5.1 (supporting the SIV-B1 synchronization step)");

  core::WaveKeySystem& system = bench::system();
  const int n = bench::scaled(60);

  for (const Variant variant : {Variant{"displacement anchor (shipped)", true},
                                Variant{"naive variance trigger        ", false}}) {
    std::vector<double> deltas_ms, mismatches;
    int failures = 0;
    Rng rng(4242);
    for (int i = 0; i < n; ++i) {
      sim::ScenarioConfig sc = bench::default_scenario(i);
      sc.dynamic_environment = (i % 3 == 2);
      sim::ScenarioSimulator simulator(sc, rng.next());
      const sim::SessionRecording rec = simulator.run();

      imu::ImuPipelineConfig ic;
      ic.displacement_anchor = variant.anchor;
      rfid::RfidPipelineConfig rc;
      rc.displacement_anchor = variant.anchor;
      const auto imu_out = imu::process_imu(rec.imu, ic);
      const auto rfid_out = rfid::process_rfid(rec.rfid, rc);
      if (!imu_out || !rfid_out) {
        ++failures;
        continue;
      }
      deltas_ms.push_back(
          std::abs(rfid_out->gesture_start_time - imu_out->gesture_start_time) * 1000.0);

      const core::Sample sample = core::WaveKeyDataset::make_sample(
          imu_out->linear_accel, rfid_out->processed, system.config());
      const BitVec sm = system.quantizer().quantize(system.encoders().imu_features(sample.imu));
      const BitVec sr = system.quantizer().quantize(system.encoders().rfid_features(sample.rfid));
      mismatches.push_back(sm.mismatch_ratio(sr));
    }
    std::printf("\n%s  (%zu sessions, %d pipeline failures)\n", variant.name, deltas_ms.size(),
                failures);
    if (!deltas_ms.empty()) {
      std::printf("  |start disagreement|: mean %6.1f ms   p90 %6.1f ms   max %6.1f ms\n",
                  mean(deltas_ms), percentile(deltas_ms, 90), percentile(deltas_ms, 100));
      std::printf("  seed mismatch:        mean %.3f       p90 %.3f\n", mean(mismatches),
                  percentile(mismatches, 90));
    }
  }
  std::printf("\nNote: the shipped model was trained *with* anchoring, so the naive\n");
  std::printf("variant's mismatch numbers are a lower bound on its true damage.\n");
  return 0;
}
