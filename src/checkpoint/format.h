// Checkpoint file format.
//
// One checkpoint object per (rank, sequence number):
//
//   FileHeader                       (fixed-size, little-endian)
//   BlockRecord * block_count
//     BlockHeader
//     name bytes                     (name_len)
//     PageRun * run_count
//       RunHeader {first_page, page_count}
//       PageRecord {encoding, payload_len} + payload, per page
//   FileTrailer {crc32, end magic}
//
// A *full* checkpoint records every page of every block; an
// *incremental* checkpoint records only the pages dirty during the
// last timeslice, but its block table always lists every live block —
// that manifest is what lets restore apply memory exclusion (blocks
// that disappear from the manifest are dropped, Section 4.2 of the
// paper) and zero-fill newly appeared blocks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/backend.h"

namespace ickpt::checkpoint {

inline constexpr std::uint32_t kMagic = 0x49434b50;      // "ICKP"
inline constexpr std::uint32_t kEndMagic = 0x50424b43;   // "CKBP"
/// v2: each page payload is preceded by a PageRecord carrying its
/// encoding (plain / zero-elided / word-RLE, see compress.h).
inline constexpr std::uint16_t kFormatVersion = 2;

enum class Kind : std::uint16_t {
  kFull = 1,
  kIncremental = 2,
};

#pragma pack(push, 1)
struct FileHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kFormatVersion;
  std::uint16_t kind = 0;           ///< Kind
  std::uint32_t rank = 0;
  std::uint32_t page_size = 0;
  std::uint64_t sequence = 0;       ///< position in the chain
  std::uint64_t parent_sequence = 0;///< previous element (== sequence for roots)
  std::uint32_t block_count = 0;
  std::uint32_t reserved = 0;
  double virtual_time = 0;          ///< clock at checkpoint time
};

struct BlockHeader {
  std::uint32_t block_id = 0;
  std::uint32_t kind = 0;           ///< region::AreaKind
  std::uint64_t bytes = 0;          ///< current block size
  std::uint32_t name_len = 0;
  std::uint32_t run_count = 0;
};

struct RunHeader {
  std::uint32_t first_page = 0;
  std::uint32_t page_count = 0;
};

/// Precedes each page payload inside a run (format v2).
struct PageRecord {
  std::uint32_t encoding = 0;      ///< PageEncoding
  std::uint32_t payload_len = 0;   ///< bytes following this record
};

struct FileTrailer {
  std::uint32_t crc32 = 0;          ///< over header..last run payload
  std::uint32_t end_magic = kEndMagic;
};
#pragma pack(pop)

static_assert(sizeof(FileHeader) == 48);
static_assert(sizeof(BlockHeader) == 24);
static_assert(sizeof(RunHeader) == 8);
static_assert(sizeof(PageRecord) == 8);
static_assert(sizeof(FileTrailer) == 8);

/// Storage key for rank r, sequence s: "rank<r>/ckpt-<s, zero padded>".
/// Defined here so writer, restorer and GC agree on the layout.
std::string checkpoint_key(std::uint32_t rank, std::uint64_t sequence);

/// A key in rank r's namespace, as read back by parse_checkpoint_key.
struct ParsedKey {
  std::uint32_t rank = 0;
  std::optional<std::uint64_t> sequence;  ///< set for "rank<r>/ckpt-<s>"
};

/// Inverse of checkpoint_key, accepting any zero-pad width: nullopt
/// unless `key` starts with "rank<digits>/"; `sequence` stays unset
/// when the rest is not "ckpt-<digits>".  Lets readers place an object
/// in its chain even when its header is unreadable.
std::optional<ParsedKey> parse_checkpoint_key(std::string_view key);

/// Read and validate just the FileHeader of `key` (magic, version,
/// page size, kind, block count) without touching the rest of the
/// object; `object_bytes`, when given, receives the object's size.
/// The one header reader shared by restore, fsck and repair.
Result<FileHeader> peek_header(storage::StorageBackend& storage,
                               const std::string& key,
                               std::uint64_t* object_bytes = nullptr);

/// Pages per encode/decode shard for `threads` workers: enough shards
/// to balance them, large enough to amortize dispatch, bounded so one
/// shard's buffer stays a few MB.  Shared so the encoder and the
/// parallel restore decoder cut a run at the same page boundaries.
std::uint32_t pick_shard_pages(std::uint64_t total_pages, int threads);

}  // namespace ickpt::checkpoint
