#include "campaignd/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "campaignd/wire.hpp"

namespace mts::campaignd {

namespace {

[[noreturn]] void io_error(const std::string& what, const std::string& path) {
  throw CheckpointError(what + " " + path + ": " + std::strerror(errno));
}

/// Writes all of `bytes` to `fd`, then fsyncs it.
void write_durably(int fd, const std::string& bytes, const std::string& path) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno != EINTR) io_error("write", path);
    if (n > 0) off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) io_error("fsync", path);
}

}  // namespace

std::size_t record_run_index(const json::Value& record) {
  try {
    return record.at("result").at("index").as_size();
  } catch (const json::ProtocolError& e) {
    throw CheckpointError(std::string("malformed run record: ") + e.what());
  }
}

CheckpointJournal::CheckpointJournal(std::string path, std::size_t configs,
                                     std::size_t reps, std::string digest)
    : path_(std::move(path)),
      configs_(configs),
      reps_(reps),
      digest_(std::move(digest)) {}

bool CheckpointJournal::resume(
    const std::function<void(json::Value&)>& on_record) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) throw CheckpointError("cannot open " + path_);
  const std::string bytes{std::istreambuf_iterator<char>(in), {}};
  // The decoder keeps every frame it completed before a framing error or a
  // short last frame: the intact prefix.
  std::vector<std::string> frames;
  try {
    FrameDecoder().feed(bytes.data(), bytes.size(), frames);
  } catch (const FramingError&) {
  }
  std::size_t intact = 0;
  try {
    // No frame at all: perhaps a version-1 checkpoint, one JSON document.
    const json::Value header =
        json::parse(frames.empty() ? bytes : frames.front());
    if (header.get_string("magic", "") != kCheckpointMagic) {
      throw CheckpointError(path_ + ": not a campaignd checkpoint");
    }
    if (frames.empty() ||
        header.at("version").as_i64() != kCheckpointVersion) {
      throw CheckpointError(path_ + ": unsupported checkpoint version " +
                            header.at("version").number_text());
    }
    const std::string digest = header.at("job").at("digest").as_string();
    if (digest != digest_) {
      throw CheckpointError(path_ + ": job digest mismatch (checkpoint " +
                            digest + ", job " + digest_ +
                            ") -- refusing to resume a different campaign");
    }
    intact = 4 + frames.front().size();
    for (std::size_t f = 1; f < frames.size() && !complete_; ++f) {
      json::Value rec;
      try {
        rec = json::parse(frames[f]);
      } catch (const json::ProtocolError&) {
        break;  // undecodable: the intact prefix ends here
      }
      complete_ = rec.get_bool("complete", false);
      if (!complete_) {
        const std::size_t idx = record_run_index(rec);
        if (idx >= configs_ * reps_) {
          throw CheckpointError(path_ + ": run index " + std::to_string(idx) +
                                " outside the " +
                                std::to_string(configs_ * reps_) +
                                "-run matrix");
        }
        on_record(rec);
      }
      intact += 4 + frames[f].size();
    }
  } catch (const json::ProtocolError& e) {
    throw CheckpointError(path_ + ": " + e.what());
  }
  fd_ = Fd(::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC));
  if (!fd_.valid()) io_error("open", path_);
  if (::ftruncate(fd_.get(), static_cast<off_t>(intact)) != 0) {
    io_error("truncate", path_);
  }
  return complete_;
}

void CheckpointJournal::add(const json::Value& record) {
  if (path_.empty()) return;
  batch_ += encode_frame(record.dump());
  ++staged_;
}

void CheckpointJournal::commit(bool complete) {
  if (complete && !complete_) batch_ += encode_frame("{\"complete\":true}");
  if (fd_.valid()) {
    write_durably(fd_.get(), batch_, path_);
  } else {
    // O_TRUNC: a previous crashed writer may have left a stale tmp behind.
    // fsync before rename: the rename must never become durable before the
    // bytes it points at. The descriptor stays open on the renamed file.
    const std::string tmp = path_ + ".tmp";
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644));
    if (!fd.valid()) io_error("open", tmp);
    json::Value job = json::Value::object();
    job.set("configs", json::Value::number_size(configs_));
    job.set("reps", json::Value::number_size(reps_));
    job.set("digest", json::Value(digest_));
    json::Value header = json::Value::object();
    header.set("magic", json::Value(kCheckpointMagic));
    header.set("version", json::Value::number_i64(kCheckpointVersion));
    header.set("job", std::move(job));
    write_durably(fd.get(), encode_frame(header.dump()) + batch_, tmp);
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      io_error("rename " + tmp + " ->", path_);
    }
    fd_ = std::move(fd);
  }
  batch_.clear();
  staged_ = 0;
  complete_ = complete_ || complete;
}

}  // namespace mts::campaignd
