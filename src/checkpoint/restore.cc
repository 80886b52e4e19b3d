#include "checkpoint/restore.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <string_view>

#include "checkpoint/compress.h"
#include "checkpoint/format.h"
#include "common/crc32.h"
#include "common/io_util.h"
#include "common/page.h"
#include "common/thread_pool.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace ickpt::checkpoint {

namespace {

/// Stage metrics for the restore pipeline (see DESIGN.md §10).
struct RestoreMetrics {
  obs::Counter& chains;
  obs::Counter& objects;
  obs::Counter& pages_decoded;
  obs::Counter& pages_skipped;
  obs::Counter& bytes_read;
  obs::Counter& bytes_mapped;  ///< of bytes_read, served zero-copy
  obs::Counter& truncated_tails;
  obs::Stage& plan;
  obs::Stage& decode;        ///< every shard of one attempt
  obs::Stage& decode_shard;
  obs::Stage& stitch;
  std::uint16_t fail_instant;  ///< "restore.fail"

  static RestoreMetrics& get() {
    auto& r = obs::registry();
    const auto cat = obs::TraceCat::kRestore;
    static RestoreMetrics m{r.counter("restore.chains"),
                            r.counter("restore.objects"),
                            r.counter("restore.pages_decoded"),
                            r.counter("restore.pages_skipped"),
                            r.counter("restore.bytes_read"),
                            r.counter("restore.bytes_mapped"),
                            r.counter("restore.truncated_tails"),
                            obs::stage("restore.plan", cat),
                            obs::stage("restore.decode", cat),
                            obs::stage("restore.decode_shard", cat),
                            obs::stage("restore.stitch", cat),
                            obs::trace_name("restore.fail", cat)};
    return m;
  }
};

/// Fill `out` through `rd` (any callable with the storage::Reader::read
/// contract; see ioutil::read_full).  An object that ends first is
/// kCorruption(`truncated`).
template <typename ReadFn>
Status read_exact(ReadFn&& rd, std::span<std::byte> out,
                  std::string_view truncated) {
  auto got = ioutil::read_full(std::forward<ReadFn>(rd), out);
  if (!got.is_ok()) return got.status();
  if (*got < out.size()) return corruption(std::string(truncated));
  return Status::ok();
}

/// read_exact from `in`'s sequential cursor.
Status read_exact(storage::Reader& in, std::span<std::byte> out,
                  std::string_view truncated) {
  return read_exact(
      [&in](std::span<std::byte> rest) { return in.read(rest); }, out,
      truncated);
}

Status validate_header(const FileHeader& h, const std::string& key) {
  if (h.magic != kMagic) return corruption("bad magic in " + key);
  if (h.version != kFormatVersion) {
    return unsupported("unknown checkpoint version in " + key);
  }
  if (h.page_size == 0 || (h.page_size & (h.page_size - 1)) != 0) {
    return corruption("bad page size in " + key);
  }
  if (h.kind != static_cast<std::uint16_t>(Kind::kFull) &&
      h.kind != static_cast<std::uint16_t>(Kind::kIncremental)) {
    return corruption("bad checkpoint kind in " + key);
  }
  if (h.block_count > 1u << 20) {
    return corruption("implausible block count in " + key);
  }
  return Status::ok();
}

// ===================================================================
// Phase 1 (plan): header peek, manifest scan, newest-wins page plan.
// ===================================================================

/// One page payload inside one object, located during the manifest
/// scan.  `decode` is set during planning for the single newest writer
/// of each surviving (block, page).
struct PageEntry {
  std::uint64_t rec_offset = 0;  ///< file offset of the PageRecord
  std::uint32_t payload_len = 0;
  std::uint32_t encoding = 0;
  std::uint32_t block_id = 0;
  std::uint32_t page_index = 0;  ///< within the block
  bool decode = false;
};

/// A contiguous byte range of one object, in file order.  Structural
/// segments (headers, names, run tables) are CRC'd during the scan;
/// page segments (PageRecord + payload interleavings of one run) are
/// CRC'd by the decode shards that read them.  Folding all segment
/// CRCs in order via crc32_combine reproduces the full-file CRC.
struct Segment {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;       ///< structural segments only
  bool structural = true;
  std::size_t first_page = 0;  ///< page segments: index into pages
  std::size_t page_count = 0;
};

/// Block manifest entry as first seen (restore keeps the oldest live
/// object's name/kind for a block).
struct BlockMeta {
  std::uint32_t id = 0;
  std::string name;
  region::AreaKind kind = region::AreaKind::kHeap;
  std::size_t rounded = 0;  ///< page-rounded extent
};

struct ObjectPlan {
  std::string key;
  FileHeader header;
  std::vector<BlockMeta> manifest;  ///< every block listed (runs or not)
  std::vector<PageEntry> pages;     ///< file order
  std::vector<Segment> segments;    ///< file order, header..last payload
  std::uint32_t trailer_crc = 0;
};

/// Buffered scanner over a storage::Reader that separates structural
/// bytes (CRC'd now) from payload bytes (skipped now, CRC'd by decode
/// shards).  Works on random-access and purely sequential readers.
class ObjectScanner {
 public:
  static constexpr std::size_t kBufSize = 64 * 1024;

  explicit ObjectScanner(storage::Reader& in)
      : in_(in), random_(in.supports_read_at()) {}

  /// Read bytes without CRC accounting (PageRecords, the trailer).
  Status read_plain(void* out, std::size_t len) {
    auto* dst = static_cast<std::byte*>(out);
    std::size_t got = 0;
    while (got < len) {
      if (pos_ == len_) ICKPT_RETURN_IF_ERROR(refill());
      std::size_t n = std::min(len - got, len_ - pos_);
      std::memcpy(dst + got, buf_.data() + pos_, n);
      pos_ += n;
      offset_ += n;
      got += n;
    }
    return Status::ok();
  }

  /// Read bytes into the current structural segment.
  Status read_struct(void* out, std::size_t len) {
    if (piece_len_ == 0) piece_off_ = offset_;
    ICKPT_RETURN_IF_ERROR(read_plain(out, len));
    piece_.update(out, len);
    piece_len_ += len;
    return Status::ok();
  }

  /// Skip payload bytes.  Random-access readers jump; sequential ones
  /// read through a scratch window.
  Status skip(std::uint64_t len) {
    while (len > 0) {
      if (pos_ < len_) {
        auto n = std::min<std::uint64_t>(len, len_ - pos_);
        pos_ += static_cast<std::size_t>(n);
        offset_ += n;
        len -= n;
        continue;
      }
      if (random_) {
        offset_ += len;
        return Status::ok();
      }
      ICKPT_RETURN_IF_ERROR(refill());
    }
    return Status::ok();
  }

  /// Close the current structural segment, if any, into `segs`.
  void end_struct(std::vector<Segment>& segs) {
    if (piece_len_ == 0) return;
    Segment s;
    s.offset = piece_off_;
    s.length = piece_len_;
    s.crc = piece_.value();
    s.structural = true;
    segs.push_back(s);
    piece_.reset();
    piece_len_ = 0;
  }

  std::uint64_t offset() const noexcept { return offset_; }

 private:
  Status refill() {
    buf_.resize(kBufSize);
    pos_ = 0;
    len_ = 0;
    Result<std::size_t> got = random_
                                  ? in_.read_at(offset_, {buf_.data(),
                                                          buf_.size()})
                                  : in_.read({buf_.data(), buf_.size()});
    if (!got.is_ok()) return got.status();
    if (*got == 0) return corruption("truncated checkpoint file");
    len_ = *got;
    return Status::ok();
  }

  storage::Reader& in_;
  bool random_;
  std::uint64_t offset_ = 0;  ///< logical position == buffer start + pos_
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  Crc32 piece_;
  std::uint64_t piece_len_ = 0;
  std::uint64_t piece_off_ = 0;
};

/// Structural scan of one object: headers, names, run tables and page
/// records are read (and CRC'd into structural segments); page
/// payloads are skipped.  No payload is decoded.
Result<ObjectPlan> scan_object(storage::StorageBackend& storage,
                               const std::string& key) {
  auto reader = storage.open(key);
  if (!reader.is_ok()) return reader.status();
  ObjectScanner in(**reader);

  ObjectPlan out;
  out.key = key;
  FileHeader& h = out.header;
  ICKPT_RETURN_IF_ERROR(in.read_struct(&h, sizeof h));
  ICKPT_RETURN_IF_ERROR(validate_header(h, key));

  const std::size_t psize = h.page_size;
  for (std::uint32_t b = 0; b < h.block_count; ++b) {
    BlockHeader bh;
    ICKPT_RETURN_IF_ERROR(in.read_struct(&bh, sizeof bh));
    if (bh.name_len > 4096) return corruption("block name too long in " + key);
    if (bh.bytes > (std::uint64_t{1} << 40)) {
      return corruption("implausible block size in " + key);
    }
    std::string name(bh.name_len, '\0');
    ICKPT_RETURN_IF_ERROR(in.read_struct(name.data(), name.size()));

    BlockMeta meta;
    meta.id = bh.block_id;
    meta.name = std::move(name);
    meta.kind = static_cast<region::AreaKind>(bh.kind);
    meta.rounded = page_ceil(bh.bytes, psize);
    const std::size_t block_pages = meta.rounded / psize;

    for (std::uint32_t r = 0; r < bh.run_count; ++r) {
      RunHeader run;
      ICKPT_RETURN_IF_ERROR(in.read_struct(&run, sizeof run));
      if (std::size_t{run.first_page} + run.page_count > block_pages) {
        return corruption("run out of block bounds in " + key);
      }
      if (run.page_count == 0) continue;
      in.end_struct(out.segments);
      Segment seg;
      seg.structural = false;
      seg.offset = in.offset();
      seg.first_page = out.pages.size();
      seg.page_count = run.page_count;
      for (std::uint32_t p = 0; p < run.page_count; ++p) {
        PageRecord rec;
        const std::uint64_t rec_offset = in.offset();
        ICKPT_RETURN_IF_ERROR(in.read_plain(&rec, sizeof rec));
        if (rec.payload_len > 2 * psize) {
          return corruption("implausible page payload in " + key);
        }
        PageEntry pe;
        pe.rec_offset = rec_offset;
        pe.payload_len = rec.payload_len;
        pe.encoding = rec.encoding;
        pe.block_id = bh.block_id;
        pe.page_index = run.first_page + p;
        out.pages.push_back(pe);
        ICKPT_RETURN_IF_ERROR(in.skip(rec.payload_len));
      }
      seg.length = in.offset() - seg.offset;
      out.segments.push_back(seg);
    }
    out.manifest.push_back(std::move(meta));
  }
  in.end_struct(out.segments);

  FileTrailer trailer;
  ICKPT_RETURN_IF_ERROR(in.read_plain(&trailer, sizeof trailer));
  if (trailer.end_magic != kEndMagic) {
    return corruption("bad end magic in " + key);
  }
  out.trailer_crc = trailer.crc32;
  return out;
}

struct Candidate {
  std::string key;
  std::uint64_t sequence = 0;
  bool header_ok = false;
  FileHeader header;
};

// ===================================================================
// Phase 2 (decode): sharded payload read + decode, CRC stitching.
// ===================================================================

struct DecodeShard {
  std::size_t obj_idx = 0;
  std::uint64_t offset = 0;  ///< byte range in the object
  std::uint64_t length = 0;
  std::size_t first_page = 0;  ///< into ObjectPlan::pages
  std::uint32_t page_count = 0;
  std::uint32_t crc = 0;  ///< CRC of the byte range (set by the worker)
  std::uint32_t decoded = 0;
  std::uint32_t skipped = 0;
  bool mapped = false;  ///< served from a zero-copy mapping
  Status status;  ///< per-shard result
};

/// Read [offset, offset+len) of an object into `out`, preferring
/// random access and falling back to a sequential skip-read.
Status read_range(storage::Reader& in, std::uint64_t offset,
                  std::span<std::byte> out) {
  constexpr std::string_view kTruncated = "truncated checkpoint file";
  if (in.supports_read_at()) {
    return read_exact(
        [&](std::span<std::byte> rest) {
          return in.read_at(offset + static_cast<std::uint64_t>(
                                         rest.data() - out.data()),
                            rest);
        },
        out, kTruncated);
  }
  // Sequential reader: discard up to `offset`, then read-exact.
  std::vector<std::byte> scratch(ObjectScanner::kBufSize);
  for (std::uint64_t to_skip = offset; to_skip > 0;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(to_skip, scratch.size()));
    ICKPT_RETURN_IF_ERROR(read_exact(in, {scratch.data(), n}, kTruncated));
    to_skip -= n;
  }
  return read_exact(in, out, kTruncated);
}

/// Decode one shard: read its byte range, CRC it, decode the winner
/// pages straight into the final block buffers.  Shards touch disjoint
/// output pages, so workers never race.  When the backend supports
/// map_at() (and the caller allows it) the byte range is a zero-copy
/// view of the object; otherwise it is read into a shard-local buffer.
/// CRC coverage and decoded bytes are identical either way.
void run_shard(storage::StorageBackend& storage,
               const std::vector<ObjectPlan>& objs,
               const std::map<std::uint32_t, std::byte*>& out_base,
               bool map_reads, const obs::Stage* stage, DecodeShard& s) {
  obs::Stage::Scope scope;
  if (stage != nullptr) scope = stage->begin(s.page_count, s.length);
  const ObjectPlan& obj = objs[s.obj_idx];
  auto reader = storage.open(obj.key);
  if (!reader.is_ok()) {
    s.status = reader.status();
    return;
  }
  std::span<const std::byte> bytes;
  std::vector<std::byte> buf;
  if (map_reads && (*reader)->supports_map()) {
    auto mapped = (*reader)->map_at(s.offset,
                                    static_cast<std::size_t>(s.length));
    if (mapped.is_ok()) {
      bytes = *mapped;
      s.mapped = true;
    } else if (mapped.status().code() == ErrorCode::kCorruption) {
      // The range came from the object's own plan; a short object is
      // damage, not a reason to retry through the buffered path.
      s.status = mapped.status();
      return;
    }
    // Any other failure (transient mmap exhaustion, decorator without
    // pass-through): fall back to the buffered read below.
  }
  if (!s.mapped) {
    buf.resize(static_cast<std::size_t>(s.length));
    s.status = read_range(**reader, s.offset, buf);
    if (!s.status.is_ok()) return;
    bytes = buf;
  }
  s.crc = crc32(bytes);

  const std::size_t psize = obj.header.page_size;
  for (std::size_t i = s.first_page; i < s.first_page + s.page_count; ++i) {
    const PageEntry& pe = obj.pages[i];
    const std::size_t rel =
        static_cast<std::size_t>(pe.rec_offset - s.offset);
    PageRecord rec;
    std::memcpy(&rec, bytes.data() + rel, sizeof rec);
    if (rec.payload_len != pe.payload_len || rec.encoding != pe.encoding) {
      s.status = corruption("object changed during restore: " + obj.key);
      return;
    }
    if (!pe.decode) {
      ++s.skipped;
      continue;
    }
    std::span<const std::byte> payload{bytes.data() + rel + sizeof rec,
                                       pe.payload_len};
    std::span<std::byte> page_out{
        out_base.at(pe.block_id) + std::size_t{pe.page_index} * psize,
        psize};
    s.status = decode_page(static_cast<PageEncoding>(pe.encoding), payload,
                           page_out);
    if (!s.status.is_ok()) return;
    ++s.decoded;
  }
}

/// Cut every page segment into decode shards of at most
/// pick_shard_pages(total pages, threads) pages.  Shards come out in
/// object order, then file order, which is the order stitch folds.
std::vector<DecodeShard> make_shards(const std::vector<ObjectPlan>& objs,
                                     int threads) {
  std::uint64_t total_pages = 0;
  for (const auto& obj : objs) total_pages += obj.pages.size();
  const std::uint32_t shard_pages =
      pick_shard_pages(total_pages, std::max(1, threads));
  std::vector<DecodeShard> shards;
  for (std::size_t o = 0; o < objs.size(); ++o) {
    const ObjectPlan& obj = objs[o];
    for (const Segment& seg : obj.segments) {
      if (seg.structural) continue;
      for (std::size_t off = 0; off < seg.page_count; off += shard_pages) {
        DecodeShard s;
        s.obj_idx = o;
        s.first_page = seg.first_page + off;
        s.page_count = static_cast<std::uint32_t>(
            std::min<std::size_t>(shard_pages, seg.page_count - off));
        s.offset = obj.pages[s.first_page].rec_offset;
        const std::size_t last = s.first_page + s.page_count - 1;
        s.length = obj.pages[last].rec_offset + sizeof(PageRecord) +
                   obj.pages[last].payload_len - s.offset;
        shards.push_back(s);
      }
    }
  }
  return shards;
}

/// Decode every shard, on a pool of `threads` workers or inline.
/// `stage` times each shard (nullptr: untimed, untraced).
void run_shards(storage::StorageBackend& storage,
                const std::vector<ObjectPlan>& objs,
                const std::map<std::uint32_t, std::byte*>& out_base,
                bool map_reads, int threads, const obs::Stage* stage,
                std::vector<DecodeShard>& shards) {
  auto decode = [&](DecodeShard& s) {
    run_shard(storage, objs, out_base, map_reads, stage, s);
  };
  if (threads > 1 && shards.size() > 1) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    for (DecodeShard& s : shards) pool.submit([&decode, &s] { decode(s); });
    pool.wait_idle();
  } else {
    for (DecodeShard& s : shards) decode(s);
  }
}

/// Per-shard counts summed by a successful stitch.
struct ShardTotals {
  std::uint64_t decoded = 0;
  std::uint64_t skipped = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_mapped = 0;
};

/// Surface shard failures (oldest object first, so a tolerant retry
/// truncates as little as possible), then fold each object's segment
/// CRCs in file order and compare against its trailer.  On failure
/// *bad_obj is the index of the object at fault.
Status stitch(const std::vector<ObjectPlan>& objs,
              const std::vector<DecodeShard>& shards, ShardTotals* totals,
              std::size_t* bad_obj) {
  std::size_t next = 0;  // first shard of the current object
  for (std::size_t o = 0; o < objs.size(); ++o) {
    *bad_obj = o;
    const std::size_t first = next;
    for (; next < shards.size() && shards[next].obj_idx == o; ++next) {
      const DecodeShard& s = shards[next];
      if (!s.status.is_ok()) return s.status;
      totals->decoded += s.decoded;
      totals->skipped += s.skipped;
      totals->bytes_read += s.length;
      if (s.mapped) totals->bytes_mapped += s.length;
    }
    Crc32 fold;
    std::size_t si = first;
    for (const Segment& seg : objs[o].segments) {
      if (seg.structural) {
        fold.combine(seg.crc, seg.length);
        continue;
      }
      for (std::uint64_t covered = 0; covered < seg.length; ++si) {
        fold.combine(shards[si].crc, shards[si].length);
        covered += shards[si].length;
      }
    }
    if (fold.value() != objs[o].trailer_crc) {
      return corruption("crc mismatch in " + objs[o].key);
    }
  }
  return Status::ok();
}

/// One strict plan-then-decode attempt at `upto`.  In tolerant mode
/// (`truncate_tail`) chain damage detectable from headers alone is
/// healed by cutting the candidate list; damage found later (corrupt
/// manifest or payload in the live range) is reported via *failed_seq
/// so the caller can retry below it.
Result<RestoredState> attempt(storage::StorageBackend& storage,
                              std::uint32_t rank, std::uint64_t upto,
                              int threads, bool truncate_tail,
                              bool map_reads, std::uint64_t* failed_seq,
                              bool* have_failed_seq) {
  auto& metrics = RestoreMetrics::get();
  auto plan_scope = metrics.plan.begin(upto);

  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();
  const std::string prefix = "rank" + std::to_string(rank) + "/";
  std::vector<std::string> chain_keys;
  for (const auto& k : *keys) {
    if (k.rfind(prefix, 0) == 0) chain_keys.push_back(k);
  }
  if (chain_keys.empty()) {
    return not_found("no checkpoints for rank " + std::to_string(rank));
  }

  // ---- Header peek: place every object in the chain by sequence.
  std::vector<Candidate> cands;
  cands.reserve(chain_keys.size());
  for (const auto& k : chain_keys) {
    Candidate c;
    c.key = k;
    auto h = peek_header(storage, k);
    if (h.is_ok()) {
      c.header_ok = true;
      c.header = *h;
      c.sequence = h->sequence;
    } else if (auto parsed = parse_checkpoint_key(k);
               parsed && parsed->sequence) {
      c.sequence = *parsed->sequence;
    } else {
      // Unreadable header and unparseable key: the object cannot even
      // be placed in the chain.
      if (!truncate_tail) return h.status();
      continue;  // orphan; fsck --repair quarantines these
    }
    if (c.sequence > upto) continue;  // peeked only, never fully parsed
    if (!c.header_ok && !truncate_tail) return h.status();
    cands.push_back(std::move(c));
  }
  if (cands.empty()) {
    return not_found("no checkpoint at or before requested sequence");
  }
  // Sequences are compared numerically — never trust the key sort
  // (zero-pad widths may differ across writer versions).
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.sequence < b.sequence;
                   });
  for (std::size_t i = 1; i < cands.size(); ++i) {
    if (cands[i].sequence == cands[i - 1].sequence) {
      if (!truncate_tail) {
        return corruption("duplicate sequence " +
                          std::to_string(cands[i].sequence) + " in chain");
      }
      cands.resize(i);
      break;
    }
  }
  // Tolerant mode: an unreadable header ends the usable prefix there.
  if (truncate_tail) {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!cands[i].header_ok) {
        cands.resize(i);
        break;
      }
    }
    if (cands.empty()) {
      return not_found("no checkpoint at or before requested sequence");
    }
  }

  // ---- Seed: newest full checkpoint; validate parent links after it.
  std::ptrdiff_t start = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(cands.size()) - 1;
       i >= 0; --i) {
    if (cands[static_cast<std::size_t>(i)].header.kind ==
        static_cast<std::uint16_t>(Kind::kFull)) {
      start = i;
      break;
    }
  }
  if (start < 0) {
    return corruption("chain has no full checkpoint to seed recovery");
  }
  std::size_t end = cands.size();
  for (std::size_t i = static_cast<std::size_t>(start) + 1; i < end; ++i) {
    if (cands[i].header.parent_sequence != cands[i - 1].sequence) {
      if (!truncate_tail) {
        return corruption(
            "chain gap: sequence " + std::to_string(cands[i].sequence) +
            " expects parent " +
            std::to_string(cands[i].header.parent_sequence) + " but " +
            std::to_string(cands[i - 1].sequence) +
            " is the newest applied");
      }
      end = i;  // recover the prefix before the gap
      break;
    }
  }

  // ---- Manifest scan of the live range (seed..end) and page plan.
  std::vector<ObjectPlan> objs;
  objs.reserve(end - static_cast<std::size_t>(start));
  for (std::size_t i = static_cast<std::size_t>(start); i < end; ++i) {
    auto plan = scan_object(storage, cands[i].key);
    if (!plan.is_ok()) {
      *failed_seq = cands[i].sequence;
      *have_failed_seq = true;
      return plan.status();
    }
    objs.push_back(std::move(plan.value()));
  }

  struct Winner {
    std::uint32_t obj = UINT32_MAX;
    std::uint32_t page = 0;  ///< into objs[obj].pages
  };
  struct LiveBlock {
    BlockMeta meta;  ///< first-seen name/kind/extent
    std::vector<Winner> winners;
  };
  std::map<std::uint32_t, LiveBlock> live;
  const std::uint32_t psize = objs.front().header.page_size;
  std::set<std::uint32_t> listed;
  for (std::size_t o = 0; o < objs.size(); ++o) {
    ObjectPlan& obj = objs[o];
    if (obj.header.page_size != psize) {
      *failed_seq = obj.header.sequence;
      *have_failed_seq = true;
      return corruption("page size changed mid-chain in " + obj.key);
    }
    // Memory exclusion: drop blocks absent from the newer manifest.
    listed.clear();
    for (const BlockMeta& m : obj.manifest) listed.insert(m.id);
    for (auto it = live.begin(); it != live.end();) {
      if (listed.count(it->first) == 0) {
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    for (BlockMeta& m : obj.manifest) {
      auto it = live.find(m.id);
      if (it == live.end()) {
        LiveBlock lb;
        lb.winners.assign(m.rounded / psize, Winner{});
        lb.meta = std::move(m);
        live.emplace(lb.meta.id, std::move(lb));
      } else if (it->second.meta.rounded != m.rounded) {
        // Same id cannot change extent (reallocation assigns fresh
        // ids); treat as corruption rather than guessing.
        *failed_seq = obj.header.sequence;
        *have_failed_seq = true;
        return corruption("block " + std::to_string(m.id) +
                          " changed size mid-chain");
      }
    }
    for (std::size_t p = 0; p < obj.pages.size(); ++p) {
      const PageEntry& pe = obj.pages[p];
      auto it = live.find(pe.block_id);
      if (it == live.end() || pe.page_index >= it->second.winners.size()) {
        *failed_seq = obj.header.sequence;
        *have_failed_seq = true;
        return corruption("run out of block bounds in " + obj.key);
      }
      it->second.winners[pe.page_index] =
          Winner{static_cast<std::uint32_t>(o),
                 static_cast<std::uint32_t>(p)};
    }
  }
  // Newest-wins: mark the single decoder of each surviving page.
  for (const auto& [id, lb] : live) {
    for (const Winner& w : lb.winners) {
      if (w.obj != UINT32_MAX) objs[w.obj].pages[w.page].decode = true;
    }
  }

  // ---- Output state: final footprint only, zero-filled.
  RestoredState state;
  state.sequence = objs.back().header.sequence;
  state.virtual_time = objs.back().header.virtual_time;
  std::map<std::uint32_t, std::byte*> out_base;
  for (const auto& [id, lb] : live) {
    RestoredBlock b;
    b.id = id;
    b.name = lb.meta.name;
    b.kind = lb.meta.kind;
    b.data.assign(lb.meta.rounded, std::byte{0});
    auto [it, inserted] = state.blocks.emplace(id, std::move(b));
    out_base[id] = it->second.data.data();
  }

  std::uint64_t total_pages = 0;
  for (const auto& obj : objs) total_pages += obj.pages.size();
  std::vector<DecodeShard> shards = make_shards(objs, threads);
  plan_scope.end(total_pages, shards.size());

  auto decode_scope = metrics.decode.begin(shards.size());
  run_shards(storage, objs, out_base, map_reads, threads,
             &metrics.decode_shard, shards);
  decode_scope.end();

  auto stitch_scope = metrics.stitch.begin();
  ShardTotals totals;
  std::size_t bad_obj = 0;
  if (Status st = stitch(objs, shards, &totals, &bad_obj); !st.is_ok()) {
    *failed_seq = objs[bad_obj].header.sequence;
    *have_failed_seq = true;
    return st;
  }
  stitch_scope.end();

  metrics.chains.inc();
  metrics.objects.inc(objs.size());
  metrics.pages_decoded.inc(totals.decoded);
  metrics.pages_skipped.inc(totals.skipped);
  metrics.bytes_read.inc(totals.bytes_read);
  metrics.bytes_mapped.inc(totals.bytes_mapped);
  return state;
}

/// Final-failure bookkeeping for restore_chain: an instant trace event
/// carrying the failing sequence plus a flight-recorder dump (when one
/// is configured) so the failure is diagnosable post-mortem.
Status note_restore_failure(const Status& st, std::uint64_t failed_seq) {
  obs::trace_instant(RestoreMetrics::get().fail_instant, failed_seq,
                     static_cast<std::uint64_t>(st.code()));
  obs::flightrec::dump("restore_chain failed: " + st.to_string());
  return st;
}

}  // namespace

Result<FileHeader> peek_header(storage::StorageBackend& storage,
                               const std::string& key,
                               std::uint64_t* object_bytes) {
  auto reader = storage.open(key);
  if (!reader.is_ok()) return reader.status();
  if (object_bytes != nullptr) *object_bytes = (*reader)->size();
  FileHeader h;
  ICKPT_RETURN_IF_ERROR(read_exact(
      **reader, {reinterpret_cast<std::byte*>(&h), sizeof h},
      "bad header in " + key));
  ICKPT_RETURN_IF_ERROR(validate_header(h, key));
  return h;
}

Result<RestoredState> read_checkpoint_file(storage::StorageBackend& storage,
                                           const std::string& key) {
  auto plan = scan_object(storage, key);
  if (!plan.is_ok()) return plan.status();
  std::vector<ObjectPlan> objs;
  objs.push_back(std::move(plan.value()));
  ObjectPlan& obj = objs.front();

  RestoredState state;
  state.sequence = obj.header.sequence;
  state.virtual_time = obj.header.virtual_time;
  std::map<std::uint32_t, std::byte*> out_base;
  for (BlockMeta& m : obj.manifest) {
    auto [it, fresh] = state.blocks.try_emplace(m.id);
    RestoredBlock& b = it->second;
    if (!fresh) {
      if (b.data.size() != m.rounded) {
        return corruption("block " + std::to_string(m.id) +
                          " listed twice with different sizes in " + key);
      }
      continue;
    }
    b.id = m.id;
    b.name = std::move(m.name);
    b.kind = m.kind;
    b.data.assign(m.rounded, std::byte{0});
    out_base[m.id] = b.data.data();
  }
  // Decode every page, not just the newest write of each, so this
  // per-object check is as strong as a full parse.  No page addresses
  // past its buffer: scan_object bounds each run by its own manifest
  // entry, and entries sharing an id share a size (checked above).
  for (PageEntry& pe : obj.pages) pe.decode = true;

  // One thread and no restore.* metrics or spans: fsck reads every
  // object this way, and its reads are not restores.
  std::vector<DecodeShard> shards = make_shards(objs, 1);
  run_shards(storage, objs, out_base, /*map_reads=*/true, 1,
             /*stage=*/nullptr, shards);
  ShardTotals totals;
  std::size_t bad_obj = 0;
  ICKPT_RETURN_IF_ERROR(stitch(objs, shards, &totals, &bad_obj));
  return state;
}

Result<RestoredState> restore_chain(storage::StorageBackend& storage,
                                    std::uint32_t rank,
                                    const RestoreOptions& options) {
  int threads = options.decode_threads;
  if (threads <= 0) {
    threads = static_cast<int>(ThreadPool::hardware_threads());
  }
  std::uint64_t upto = options.upto;
  for (;;) {
    std::uint64_t failed_seq = 0;
    bool have_failed_seq = false;
    auto state = attempt(storage, rank, upto, threads,
                         options.allow_truncated_tail, options.map_reads,
                         &failed_seq, &have_failed_seq);
    if (state.is_ok()) return state;
    if (!options.allow_truncated_tail ||
        state.status().code() != ErrorCode::kCorruption ||
        !have_failed_seq || failed_seq == 0) {
      return note_restore_failure(state.status(), failed_seq);
    }
    // A corrupt object at failed_seq: recover the prefix below it.
    RestoreMetrics::get().truncated_tails.inc();
    upto = failed_seq - 1;
  }
}

Result<RestoredState> restore_chain(storage::StorageBackend& storage,
                                    std::uint32_t rank, std::uint64_t upto) {
  RestoreOptions options;
  options.upto = upto;
  return restore_chain(storage, rank, options);
}

Result<std::map<std::uint32_t, region::BlockId>> materialize(
    const RestoredState& state, region::AddressSpace& space) {
  std::map<std::uint32_t, region::BlockId> mapping;
  for (const auto& [id, block] : state.blocks) {
    auto ref = space.map(block.data.size(), block.kind, block.name);
    if (!ref.is_ok()) return ref.status();
    std::memcpy(ref->mem.data(), block.data.data(), block.data.size());
    mapping[id] = ref->id;
  }
  return mapping;
}

}  // namespace ickpt::checkpoint
