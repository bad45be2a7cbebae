// A fresh directory under /tmp, removed with its contents on destruction:
// the home of a test's result store or output files.
#pragma once

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace pdos {

class TempDir {
 public:
  TempDir() {
    char name[] = "/tmp/pdos_test_XXXXXX";
    EXPECT_NE(mkdtemp(name), nullptr);
    path_ = name;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string sub(const std::string& leaf) const { return path_ + "/" + leaf; }

 private:
  std::string path_;
};

}  // namespace pdos
