#include "fftgrad/core/checkpoint_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "fftgrad/util/logging.h"

namespace fftgrad::core {
namespace {

namespace fs = std::filesystem;

constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".fgck";

/// Parse "ckpt-<epoch>.fgck" -> epoch; nullopt for anything else (including
/// leftover .tmp files from an interrupted save).
std::optional<std::uint64_t> epoch_of(const std::string& name) {
  const std::string prefix = kPrefix;
  const std::string suffix = kSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t epoch = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return epoch;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path.string());
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(size > 0 ? static_cast<std::size_t>(size) : 0);
  const std::size_t got = bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  bytes.resize(got);
  return bytes;
}

}  // namespace

std::size_t CheckpointStore::keep_from_env() {
  const char* v = std::getenv("FFTGRAD_CKPT_KEEP");
  if (v == nullptr || *v == '\0') return 3;
  try {
    const long keep = std::stol(v);
    return keep < 0 ? 3 : static_cast<std::size_t>(keep);
  } catch (const std::exception&) {
    return 3;
  }
}

CheckpointStore::CheckpointStore(std::string dir, std::size_t keep)
    : dir_(std::move(dir)), keep_(keep) {
  fs::create_directories(dir_);
}

std::string CheckpointStore::path_for(std::uint64_t epoch) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kPrefix,
                static_cast<unsigned long long>(epoch), kSuffix);
  return (fs::path(dir_) / name).string();
}

void CheckpointStore::save(const TrainerCheckpoint& ckpt) {
  const std::vector<std::uint8_t> blob = frame_state(ckpt);
  const std::string final_path = path_for(ckpt.state.iteration);
  // Same-directory temp file: rename() is then a metadata-only atomic swap,
  // never a cross-filesystem copy.
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("checkpoint: cannot open " + tmp_path);
  const std::size_t wrote = std::fwrite(blob.data(), 1, blob.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (wrote != blob.size() || !flushed) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("checkpoint: short write to " + tmp_path);
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("checkpoint: rename to " + final_path + " failed: " +
                             ec.message());
  }

  if (keep_ == 0) return;
  std::vector<std::string> retained = files();  // newest first
  for (std::size_t i = keep_; i < retained.size(); ++i) {
    fs::remove(fs::path(dir_) / retained[i], ec);  // best effort
  }
}

std::vector<std::string> CheckpointStore::files() const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto epoch = epoch_of(name)) found.emplace_back(*epoch, name);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> names;
  names.reserve(found.size());
  for (auto& [epoch, name] : found) names.push_back(std::move(name));
  return names;
}

std::optional<util::Untrusted<TrainerCheckpoint>> CheckpointStore::latest() const {
  for (const std::string& name : files()) {
    const fs::path path = fs::path(dir_) / name;
    try {
      return parse_state<TrainerCheckpoint>(read_file(path));
    } catch (const std::exception& error) {
      // Torn write or bit rot: the CRC (or the structural checks) rejected
      // the blob; fall back to the next-newest retained checkpoint.
      util::log_warn() << "checkpoint: skipping corrupt " << path.string() << ": "
                       << error.what();
    }
  }
  return std::nullopt;
}

}  // namespace fftgrad::core
