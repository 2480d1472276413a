// Corpus replay driver for builds without libFuzzer: feeds every file named
// on the command line (directories are walked recursively, in sorted order)
// to LLVMFuzzerTestOneInput once.
//
// Usage: FUZZ_TARGET PATH...
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s PATH...\n", argv[0]);
    return 2;
  }
  std::vector<fs::path> files;
  for (int i = 1; i < argc; ++i) {
    const fs::path p = argv[i];
    if (fs::is_directory(p)) {
      for (const auto& e : fs::recursive_directory_iterator(p))
        if (e.is_regular_file()) files.push_back(e.path());
    } else if (fs::is_regular_file(p)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "%s: no such file or directory: %s\n", argv[0], argv[i]);
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::printf("replayed %zu inputs\n", files.size());
  return files.empty() ? 1 : 0;
}
