#pragma once

/// \file gate.hpp
/// \brief The correctness gate behind `attempted`, `failed` and the
///        printed `fail_ratio`.
///
/// An operation is one grid cell or one coupled FSI step.  It fails when
/// it throws, breaks its invariant, or its output differs from the
/// reference: the pinned value when the run uses the pinned seed, and
/// otherwise the value the same key produced earlier in the run (every
/// pass of a run repeats the same inputs, so outputs must repeat too).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// 64-bit FNV-1a digest, as 16 lowercase hex digits.
std::string digest(std::string_view bytes);

/// Pinned reference outputs of one workload: key -> value.
struct Pins {
  std::uint64_t seed = 0;
  std::map<std::string, std::string> values;

  /// Reads "# seed N" then "key<TAB>value" lines; an unreadable file
  /// yields empty pins (nothing pinned).
  static Pins load(const std::string& path);
  /// \throws std::runtime_error when the file cannot be written.
  void save(const std::string& path) const;
};

class Gate {
 public:
  /// Decides whether an observed value matches the reference.
  using Match = std::function<bool(const std::string& expected,
                                   const std::string& observed)>;

  /// \p pins apply only when their seed equals \p seed.
  Gate(Pins pins, std::uint64_t seed, Match match = {});

  /// Records one operation.  \p invariant_error is empty when every
  /// invariant held.
  void check(const std::string& key, const std::string& observed,
             const std::string& invariant_error = {});
  /// Records one operation checked by its invariant alone: an output with
  /// no reference, such as a representative cell of a traced run.
  void check_invariant(const std::string& key,
                       const std::string& invariant_error);
  /// Records one operation that threw.
  void fail(const std::string& key, const std::string& error);

  bool pinned() const noexcept { return pinned_; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  /// First few failure messages, for the log.
  const std::vector<std::string>& errors() const noexcept { return errors_; }
  /// First observed value per key (what `--pin` writes out).
  const std::map<std::string, std::string>& observed() const noexcept {
    return first_;
  }

 private:
  void record_failure(std::string message);

  std::map<std::string, std::string> pins_;
  bool pinned_ = false;
  Match match_;
  std::map<std::string, std::string> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
