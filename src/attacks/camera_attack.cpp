#include "attacks/camera_attack.hpp"

#include <cmath>

#include "core/dataset.hpp"
#include "dsp/resample.hpp"
#include "dsp/savitzky_golay.hpp"
#include "numeric/stats.hpp"

namespace wavekey::attacks {

std::optional<CameraAttackResult> run_camera_attack(core::EncoderPair& encoders,
                                                    const core::SeedQuantizer& quantizer,
                                                    const core::WaveKeyConfig& config,
                                                    const sim::Trajectory& victim,
                                                    const sim::CameraConfig& camera_config,
                                                    const Vec3& view_direction, Rng& rng) {
  const sim::CameraObserver camera(camera_config, view_direction);
  const sim::CameraTrack track =
      camera.observe(victim, 0.0, victim.total_duration(), rng);
  if (track.estimates.size() < 30) return std::nullopt;

  // Resample each axis onto the victim pipeline's 100 Hz grid with cubic
  // splines (the attacker needs second derivatives, linear interp has none).
  std::vector<double> ts, px, py, pz;
  ts.reserve(track.estimates.size());
  for (const auto& e : track.estimates) {
    ts.push_back(e.t);
    px.push_back(e.position.x);
    py.push_back(e.position.y);
    pz.push_back(e.position.z);
  }
  const double rate = 100.0;
  const auto n_grid = static_cast<std::size_t>((ts.back() - ts.front()) * rate);
  if (n_grid < 30) return std::nullopt;
  const auto grid = dsp::uniform_grid(ts.front(), rate, n_grid);
  std::vector<double> gx = dsp::interp_cubic(ts, px, grid);
  std::vector<double> gy = dsp::interp_cubic(ts, py, grid);
  std::vector<double> gz = dsp::interp_cubic(ts, pz, grid);

  // Denoise the position track before differentiating (the attacker is
  // competent: double differentiation of raw detections would explode).
  const dsp::SavitzkyGolayFilter sg(11, 3);
  gx = sg.apply(gx);
  gy = sg.apply(gy);
  gz = sg.apply(gz);

  // Displacement-threshold onset, mirroring the victim pipeline's anchor.
  const Vec3 origin{gx.front(), gy.front(), gz.front()};
  std::size_t anchor = n_grid;
  for (std::size_t i = 0; i < n_grid; ++i) {
    const Vec3 p{gx[i], gy[i], gz[i]};
    if ((p - origin).norm() >= 0.008) {
      anchor = i;
      break;
    }
  }
  const auto n_window = static_cast<std::size_t>(config.gesture_window_s * rate);
  if (anchor == n_grid || anchor + n_window + 1 >= n_grid) return std::nullopt;

  // Double differentiation -> linear accelerations over the window.
  Matrix a(n_window, 3);
  const double dt = 1.0 / rate;
  for (std::size_t i = 0; i < n_window; ++i) {
    const std::size_t j = std::max<std::size_t>(anchor + i, 1);
    a(i, 0) = (gx[j + 1] - 2.0 * gx[j] + gx[j - 1]) / (dt * dt);
    a(i, 1) = (gy[j + 1] - 2.0 * gy[j] + gy[j - 1]) / (dt * dt);
    a(i, 2) = (gz[j + 1] - 2.0 * gz[j] + gz[j - 1]) / (dt * dt);
  }
  for (std::size_t c = 0; c < 3; ++c) {
    const auto col = a.col(c);
    const double m = mean(col);
    for (std::size_t r = 0; r < a.rows(); ++r) a(r, c) -= m;
  }

  // Run the victim's own key-seed pipeline on the estimate (white-box model:
  // the attacker has the public encoders).
  Matrix dummy_rfid(2, 2);  // make_sample needs a placeholder RFID matrix
  const core::Sample sample = core::WaveKeyDataset::make_sample(a, dummy_rfid, config);

  CameraAttackResult result;
  result.seed = quantizer.quantize(encoders.imu_features(sample.imu));
  result.processing_latency_s = track.processing_latency_s;
  result.within_deadline =
      result.processing_latency_s <= config.gesture_window_s + config.tau_s;
  return result;
}

}  // namespace wavekey::attacks
