#ifndef STREACH_REACHGRAPH_STORED_VERTEX_H_
#define STREACH_REACHGRAPH_STORED_VERTEX_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "common/encoding.h"
#include "common/result.h"
#include "common/types.h"
#include "reachgraph/dn_graph.h"
#include "storage/page_codec.h"

namespace streach {

/// \brief ReachGraph's on-disk vertex record (§5.1.3) and its in-place
/// reader.
///
/// A partition blob is a varint vertex count followed by one record per
/// vertex, in id order:
///
///     u32 id | i32 span.start | i32 span.end
///     varint #members | u32 member...
///     varint #out     | u32 out...
///     varint #in      | u32 in...
///     varint #long    | (i32 anchor, varint length, u32 target)...
///
/// all little-endian. The index's directory records each vertex's byte
/// offset inside its partition, so a traversal decodes only the vertices
/// it visits, straight out of the verified blob.

/// Serializes `v` (stored under `id`) into a partition blob, declaring its
/// run structure as it goes: the sorted member/out/in id arrays are the
/// codec-compressible runs, the mixed-width sections stay opaque bytes.
void EncodeVertex(VertexId id, const DnVertex& v, Encoder* enc,
                  RecordShape* shape);

/// A run of little-endian u32 values read in place; never owns bytes.
class U32Run {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t*;
    using reference = uint32_t;

    explicit Iterator(const unsigned char* p) : p_(p) {}
    uint32_t operator*() const { return U32Run::Load(p_); }
    Iterator& operator++() {
      p_ += 4;
      return *this;
    }
    bool operator==(const Iterator& o) const { return p_ == o.p_; }
    bool operator!=(const Iterator& o) const { return p_ != o.p_; }

   private:
    const unsigned char* p_;
  };

  U32Run() = default;
  U32Run(const char* data, size_t size)
      : data_(reinterpret_cast<const unsigned char*>(data)), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// First byte of the run (4 * size() bytes long).
  const char* data() const { return reinterpret_cast<const char*>(data_); }
  uint32_t operator[](size_t i) const { return Load(data_ + 4 * i); }
  Iterator begin() const { return Iterator(data_); }
  Iterator end() const { return Iterator(data_ + 4 * size_); }

  /// The little-endian u32 at `p`.
  static uint32_t Load(const unsigned char* p) {
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
  }

 private:
  const unsigned char* data_ = nullptr;
  size_t size_ = 0;
};

/// The long-edge section of one record, already bounds-checked by
/// `DecodeStoredVertex`; iterating decodes one edge per step in place.
class LongEdgeRun {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = LongEdge;
    using difference_type = std::ptrdiff_t;
    using pointer = const LongEdge*;
    using reference = const LongEdge&;

    Iterator(const char* p, size_t remaining)
        : p_(reinterpret_cast<const unsigned char*>(p)),
          remaining_(remaining) {
      Load();
    }
    const LongEdge& operator*() const { return edge_; }
    Iterator& operator++() {
      --remaining_;
      Load();
      return *this;
    }
    bool operator==(const Iterator& o) const {
      return remaining_ == o.remaining_;
    }
    bool operator!=(const Iterator& o) const { return !(*this == o); }

   private:
    void Load();

    const unsigned char* p_;
    size_t remaining_;
    LongEdge edge_;
  };

  LongEdgeRun() = default;
  LongEdgeRun(std::string_view bytes, size_t size)
      : bytes_(bytes), size_(size) {}

  size_t size() const { return size_; }
  /// The section's encoded edges (no count prefix).
  std::string_view bytes() const { return bytes_; }
  Iterator begin() const { return Iterator(bytes_.data(), size_); }
  Iterator end() const { return Iterator(nullptr, 0); }

 private:
  std::string_view bytes_;
  size_t size_ = 0;
};

/// One stored vertex viewed in place: every run points into the blob it
/// was decoded from and is valid for as long as that blob lives.
struct VertexView {
  TimeInterval span;
  U32Run members;
  U32Run out;
  U32Run in;
  LongEdgeRun long_out;
};

/// Decodes the vertex record at byte `offset` of a partition blob. Total
/// over any input: either every run of the result lies inside `blob`, or
/// the status is `Corruption` (offset outside the blob, truncated header
/// or run, a count larger than the bytes left, or a stored id other than
/// `expected`).
Result<VertexView> DecodeStoredVertex(std::string_view blob, size_t offset,
                                      VertexId expected);

inline void LongEdgeRun::Iterator::Load() {
  if (remaining_ == 0) return;
  // Unchecked: DecodeStoredVertex walked these exact bytes with a
  // bounds-checked Decoder before handing the run out.
  const auto anchor = static_cast<int32_t>(U32Run::Load(p_));
  p_ += 4;
  uint64_t length = 0;
  for (int shift = 0;; shift += 7) {
    const unsigned char byte = *p_++;
    length |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
  }
  edge_ = LongEdge{U32Run::Load(p_), anchor, static_cast<int32_t>(length)};
  p_ += 4;
}

}  // namespace streach

#endif  // STREACH_REACHGRAPH_STORED_VERTEX_H_
