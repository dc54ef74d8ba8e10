#pragma once

// UHF backscatter channel + reader model — the stand-in for the paper's
// Impinj Speedway R420 reader, Laird S9028 antenna, and six tags.
//
// Physics. The reader transmits a continuous wave at 915 MHz; the tag
// backscatters it. The complex baseband channel is a sum over propagation
// path pairs (reader -> tag leg, tag -> reader leg), each leg being either
// the direct line of sight or a single bounce off an environment reflector:
//
//   H(t) = sum_dn sum_up a_dn a_up exp(-j 2pi (L_dn(t) + L_up(t)) / lambda)
//
// with per-leg amplitude a = gain/L for the direct leg and rho*gain/L_total
// for a reflected leg. The direct-direct term carries the paper's
// 4*pi*d(t)/lambda phase; reflectors produce the multipath structure the
// paper's denoising has to cope with; *moving* reflectors ("walkers")
// produce the dynamic-environment degradation of Tables I/II.
//
// The reader reports, at 200 Hz: the wrapped phase quantized to 12 bits
// (Impinj-style) and the RSSI quantized to 0.5 dBm, both after additive
// complex thermal noise.

#include <complex>
#include <string>
#include <vector>

#include "numeric/rng.hpp"
#include "numeric/vec3.hpp"
#include "sim/gesture.hpp"

namespace wavekey::sim {

/// One reader observation.
struct RfidSample {
  double t = 0.0;          ///< seconds since recording start
  double phase = 0.0;      ///< wrapped [0, 2pi), quantized
  double rssi_dbm = 0.0;   ///< quantized to 0.5 dB
  double magnitude = 0.0;  ///< linear |H|, before dB conversion
};

/// A full recording of one gesture by the RFID server.
struct RfidRecord {
  std::string tag_name;
  std::vector<RfidSample> samples;
};

/// Backscatter characteristics of one tag model.
struct TagProfile {
  std::string name;
  double backscatter_gain = 1.0;  ///< linear amplitude factor
  double phase_offset = 0.0;      ///< tag-intrinsic reflection phase, rad

  /// The paper's six evaluation tags: 2x Alien 9640, 2x Alien 9730,
  /// 2x SMARTRAC DogBone (SVI-A).
  static std::vector<TagProfile> standard_tags();
};

/// A single-bounce reflector. Static reflectors model walls/furniture;
/// walkers translate and sway, modelling the five volunteers moving around
/// the reader in the paper's dynamic condition.
struct Reflector {
  Vec3 base_position;
  double rho = 0.2;           ///< reflection amplitude coefficient
  bool moving = false;
  Vec3 walk_direction{};      ///< walker velocity direction (unit)
  double walk_speed = 0.0;    ///< m/s
  double sway_amp = 0.0;      ///< m, lateral oscillation
  double sway_freq = 0.0;     ///< Hz
  double sway_phase = 0.0;

  Vec3 position(double t) const;
};

/// Room + crowd configuration. The paper emulates four environments by
/// moving/reorienting the reader in one lab; we instantiate four distinct
/// static reflector layouts, optionally with walkers for the dynamic case.
struct EnvironmentModel {
  int id = 1;
  bool dynamic = false;
  std::vector<Reflector> reflectors;

  /// Builds environment `id` in [1,4]; `dynamic` adds five walkers whose
  /// kinematic phases are drawn from `rng`. Throws on bad id.
  static EnvironmentModel make(int id, bool dynamic, Rng& rng);
};

/// Geometry of one key-establishment session.
struct SessionGeometry {
  double distance_m = 5.0;     ///< user distance from the antenna
  double azimuth_rad = 0.0;    ///< user bearing off antenna boresight
  Vec3 hand_offset{0.0, 0.0, -0.2};  ///< hand rest point relative to chest

  /// Antenna sits at the origin, boresight along +x, at chest height.
  Vec3 antenna_position() const { return {0.0, 0.0, 0.0}; }
  /// User chest position for this geometry.
  Vec3 user_position() const;
  /// Unit vector from user toward the antenna (the gesture "facing" axis).
  Vec3 facing_direction() const;
};

/// Reader front-end parameters (Impinj R420-like defaults).
struct ReaderConfig {
  double sample_rate_hz = 200.0;
  double carrier_hz = 915e6;
  double tx_amplitude = 1.0;        ///< direct-path amplitude at 1 m
  double noise_sigma = 6e-4;        ///< complex thermal noise, per axis
  int phase_quant_bits = 12;        ///< Impinj-style phase resolution
  double rssi_quant_db = 0.5;
  double beamwidth_deg = 70.0;      ///< antenna -3 dB beamwidth
};

/// The channel + reader simulator.
class RfidChannel {
 public:
  RfidChannel(const TagProfile& tag, const EnvironmentModel& env, const SessionGeometry& geometry,
              Rng& rng, ReaderConfig config = {});

  /// Records [t_begin, t_end) at the reader rate. Times are relative to the
  /// gesture clock (same clock as the IMU simulator — the *recordings* are
  /// later aligned by gesture-start detection, as in the paper).
  RfidRecord record(const Trajectory& gesture, double t_begin, double t_end,
                    Rng& rng) const;

  /// Complex channel at absolute gesture time t (exposed for tests and the
  /// signal-spoofing attack).
  std::complex<double> channel_at(const Trajectory& gesture, double t) const;

  double wavelength() const { return 299792458.0 / config_.carrier_hz; }
  const ReaderConfig& config() const { return config_; }

 private:
  double antenna_gain(const Vec3& target) const;  // linear amplitude gain

  TagProfile tag_;
  EnvironmentModel env_;
  SessionGeometry geometry_;
  ReaderConfig config_;
  double reader_phase_offset_;  // per-session LO phase
};

}  // namespace wavekey::sim
