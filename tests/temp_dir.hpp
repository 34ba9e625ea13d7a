// Scoped scratch directory for tests.
//
// mkdtemp() under /tmp on construction; the whole tree goes on scope exit.
// Only the creating process removes it: a forked child leaving the same
// scope must never delete a directory its parent still uses.
//
// A gtest death-test child re-runs the test body in a fresh process and
// dies without unwinding, so its own TempDir would outlive it.  The
// outermost live TempDir therefore exports its path, and any TempDir made
// while it lives — in this process or in a child that inherited the
// environment — nests inside it: removing the outer tree takes the
// children's with it.
#pragma once

#include <stdlib.h>
#include <sys/types.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "common/check.hpp"

namespace pm2::test {

class TempDir {
 public:
  /// `prefix` names the directory: <root>/<prefix>-XXXXXX.
  explicit TempDir(const std::string& prefix) : owner_(::getpid()) {
    const char* outer = ::getenv(kOuterEnv);
    std::string tmpl = std::string(outer != nullptr ? outer : "/tmp") + "/" +
                       prefix + "-XXXXXX";
    PM2_CHECK(::mkdtemp(tmpl.data()) != nullptr) << "mkdtemp failed";
    path_ = tmpl;
    if (outer == nullptr) {
      ::setenv(kOuterEnv, path_.c_str(), 1);
      outermost_ = true;
    }
  }
  ~TempDir() {
    if (::getpid() != owner_) return;
    if (outermost_) ::unsetenv(kOuterEnv);
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  static constexpr const char* kOuterEnv = "PM2_TEST_TMPDIR";
  std::string path_;
  pid_t owner_;
  bool outermost_ = false;
};

}  // namespace pm2::test
