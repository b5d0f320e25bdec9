#include "storage/wal.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/serde.hpp"

namespace tbft::storage {
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8;  // magic + version + first_slot
constexpr std::size_t kRecordHeaderBytes = 4 + 8;  // len + checksum

std::string segment_name(Slot first_slot) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%020" PRIu64 ".seg", first_slot);
  return buf;
}

/// first_slot encoded in a segment file name, or 0 when not a segment.
Slot parse_segment_name(const std::string& name) {
  if (name.size() != 4 + 20 + 4 || name.rfind("wal-", 0) != 0 ||
      name.compare(name.size() - 4, 4, ".seg") != 0) {
    return 0;
  }
  Slot slot = 0;
  for (std::size_t i = 4; i < 24; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    slot = slot * 10 + static_cast<Slot>(name[i] - '0');
  }
  return slot;
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Cap on a single record's block bytes: far above any honest block (payload
/// batches are protocol-bounded), far below anything that could wedge
/// recovery on a corrupt length field.
constexpr std::uint32_t kMaxRecordBytes = 1u << 26;

}  // namespace

WriteAheadLog::WriteAheadLog(fs::path dir, std::size_t segment_bytes,
                             std::uint32_t flush_every)
    : dir_(std::move(dir)),
      segment_bytes_(std::max<std::size_t>(segment_bytes, 1)),
      flush_every_(std::max<std::uint32_t>(flush_every, 1)) {
  fs::create_directories(dir_);
}

WriteAheadLog::~WriteAheadLog() { close_segment(); }

std::vector<WriteAheadLog::Segment> WriteAheadLog::list_segments() const {
  std::vector<Segment> segs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const Slot first = parse_segment_name(entry.path().filename().string());
    if (first != 0) segs.push_back(Segment{first, entry.path()});
  }
  std::sort(segs.begin(), segs.end(),
            [](const Segment& a, const Segment& b) { return a.first_slot < b.first_slot; });
  return segs;
}

WalRecoveryResult WriteAheadLog::recover(Slot after, std::uint64_t parent_hash) {
  WalRecoveryResult out;
  Slot next_slot = after + 1;
  bool stop = false;  // set on the first bad record: later segments are dropped

  const std::vector<Segment> segs = list_segments();
  for (std::size_t si = 0; si < segs.size(); ++si) {
    const Segment& seg = segs[si];
    if (stop) {
      std::error_code ec;
      fs::remove(seg.path, ec);
      continue;
    }

    std::FILE* f = std::fopen(seg.path.string().c_str(), "rb");
    if (f == nullptr) continue;
    std::vector<std::uint8_t> raw;
    {
      std::fseek(f, 0, SEEK_END);
      const long size = std::ftell(f);
      std::fseek(f, 0, SEEK_SET);
      raw.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
      if (!raw.empty() && std::fread(raw.data(), 1, raw.size(), f) != raw.size()) {
        raw.clear();
      }
    }
    std::fclose(f);

    // Header check: a segment with a torn/garbage header holds nothing usable.
    std::size_t pos = kHeaderBytes;
    if (raw.size() < kHeaderBytes || get_u32(raw.data()) != kMagic ||
        get_u32(raw.data() + 4) != kVersion) {
      stop = true;
      out.truncated = true;
      std::error_code ec;
      fs::remove(seg.path, ec);
      continue;
    }

    std::size_t good_end = pos;  // offset just past the last valid record
    while (pos < raw.size()) {
      if (raw.size() - pos < kRecordHeaderBytes) break;  // torn record header
      const std::uint32_t len = get_u32(raw.data() + pos);
      const std::uint64_t sum = get_u64(raw.data() + pos + 4);
      if (len == 0 || len > kMaxRecordBytes || raw.size() - pos - kRecordHeaderBytes < len) {
        break;  // torn or corrupt length / truncated body
      }
      const std::span<const std::uint8_t> body{raw.data() + pos + kRecordHeaderBytes, len};
      if (fnv1a64(body) != sum) break;  // bit-rot or torn overwrite
      serde::Reader r(body);
      multishot::Block b = multishot::Block::decode(r);
      if (!r.done()) break;
      if (b.slot >= next_slot) {
        // A record can only extend the replayed chain; anything else
        // (skipped slot, broken parent link) is corruption.
        if (b.slot != next_slot || b.parent_hash != parent_hash) break;
        parent_hash = b.hash();
        next_slot = b.slot + 1;
        out.blocks.push_back(std::move(b));
        ++stats_.recovered;
      }
      // Records at or below `after` are covered by the checkpoint: skip.
      pos += kRecordHeaderBytes + len;
      good_end = pos;
    }

    if (good_end < raw.size()) {
      // Torn tail: truncate this segment to its last valid record and drop
      // every later segment -- they depend on the bytes we just cut.
      out.truncated = true;
      stats_.truncated_tail = true;
      stop = true;
      std::error_code ec;
      if (good_end <= kHeaderBytes) {
        fs::remove(seg.path, ec);
      } else {
        fs::resize_file(seg.path, good_end, ec);
      }
    }
  }

  last_slot_ = out.blocks.empty() ? after : out.blocks.back().slot;
  if (last_slot_ < after) last_slot_ = after;
  return out;
}

void WriteAheadLog::open_segment(Slot first_slot) {
  close_segment();
  file_path_ = dir_ / segment_name(first_slot);
  file_ = std::fopen(file_path_.string().c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("wal: cannot open segment " + file_path_.string());
  }
  std::uint8_t header[kHeaderBytes];
  put_u32(header, kMagic);
  put_u32(header + 4, kVersion);
  put_u64(header + 8, first_slot);
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header)) {
    throw std::runtime_error("wal: header write failed for " + file_path_.string());
  }
  file_bytes_ = sizeof(header);
  unflushed_ = 0;
  ++stats_.segments_opened;
}

void WriteAheadLog::close_segment() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

void WriteAheadLog::append(const multishot::Block& b) {
  if (file_ == nullptr || file_bytes_ >= segment_bytes_) {
    // A fresh segment per life (and per rotation): never append into a file
    // recovery may just have truncated -- rotation also caps the blast
    // radius of a torn tail to one segment.
    open_segment(b.slot);
  }
  scratch_.clear();
  b.encode(scratch_);
  const auto body = scratch_.span();
  std::uint8_t header[kRecordHeaderBytes];
  put_u32(header, static_cast<std::uint32_t>(body.size()));
  put_u64(header + 4, fnv1a64(body));
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header) ||
      std::fwrite(body.data(), 1, body.size(), file_) != body.size()) {
    throw std::runtime_error("wal: record write failed for " + file_path_.string());
  }
  file_bytes_ += sizeof(header) + body.size();
  last_slot_ = b.slot;
  ++stats_.appended;
  if (++unflushed_ >= flush_every_) {
    std::fflush(file_);
    unflushed_ = 0;
  }
}

void WriteAheadLog::flush() {
  if (file_ != nullptr) {
    std::fflush(file_);
    unflushed_ = 0;
  }
}

void WriteAheadLog::reclaim(Slot upto) {
  const std::vector<Segment> segs = list_segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].path == file_path_ && file_ != nullptr) continue;  // active
    // Every record in segment i is below the NEXT segment's first slot; the
    // last segment's bound is the durable tip. Reclaim only fully-covered
    // segments.
    const Slot bound = i + 1 < segs.size() ? segs[i + 1].first_slot - 1 : last_slot_;
    if (bound <= upto) {
      std::error_code ec;
      fs::remove(segs[i].path, ec);
      if (!ec) ++stats_.segments_reclaimed;
    }
  }
}

}  // namespace tbft::storage
