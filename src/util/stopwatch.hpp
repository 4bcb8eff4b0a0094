// Wall-clock stopwatch for timing refinement-loop iterations and benches.
#pragma once

#include <chrono>

namespace abg::util {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace abg::util
