#pragma once
// Per-process scratch paths for tests that touch the filesystem. ctest runs
// every test case as its own process, in parallel under -j, so a fixed file
// name would be removed and rewritten by one case while another reads it.
// Every path here carries the process id; a stale file at the path (and its
// ".compact" sibling) is removed when the path is handed out, and again when
// the process exits, so repeated runs leave nothing behind.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace gapsched::testing {

namespace detail {

inline void remove_with_sibling(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
}

/// Paths handed out by this process, removed at exit.
class TempPaths {
 public:
  ~TempPaths() {
    for (const std::string& path : paths_) remove_with_sibling(path);
  }
  void add(const std::string& path) {
    const std::lock_guard<std::mutex> lock(mu_);
    paths_.push_back(path);
  }

 private:
  std::mutex mu_;
  std::vector<std::string> paths_;
};

inline TempPaths& temp_paths() {
  static TempPaths paths;
  return paths;
}

}  // namespace detail

/// `<gtest temp dir>gapsched_<name>_<pid><ext>`, with no file at it yet.
inline std::string temp_path(const std::string& name, const std::string& ext) {
  std::string path = ::testing::TempDir() + "gapsched_" + name + "_" +
                     std::to_string(::getpid()) + ext;
  detail::remove_with_sibling(path);
  detail::temp_paths().add(path);
  return path;
}

}  // namespace gapsched::testing
