#ifndef STREACH_COMMON_ENCODING_H_
#define STREACH_COMMON_ENCODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace streach {

/// \brief Append-only little-endian binary encoder.
///
/// All on-"disk" structures (ReachGrid cells, ReachGraph partitions, object
/// timelines) are serialized with this encoder and parsed back with
/// `Decoder`. Fixed-width integers are stored little-endian; `varint`
/// uses LEB128 for compact lists.
class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI32(int32_t v) { PutFixed(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// LEB128 unsigned varint (1-10 bytes).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }

  /// Length-prefixed byte string.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    buf_.append(s.data(), s.size());
  }

  void PutBytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    char tmp[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    buf_.append(tmp, sizeof(T));
  }

  std::string buf_;
};

/// \brief Sequential reader over a byte span produced by `Encoder`.
///
/// Every accessor checks bounds and returns a `Status`/`Result`; a truncated
/// or corrupt buffer yields `Corruption`, never UB.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > data_.size()) return Truncated("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint16_t> GetU16() { return GetFixed<uint16_t>("u16"); }
  Result<uint32_t> GetU32() { return GetFixed<uint32_t>("u32"); }
  Result<uint64_t> GetU64() { return GetFixed<uint64_t>("u64"); }

  Result<int32_t> GetI32() {
    auto r = GetFixed<uint32_t>("i32");
    if (!r.ok()) return r.status();
    return static_cast<int32_t>(*r);
  }
  Result<int64_t> GetI64() {
    auto r = GetFixed<uint64_t>("i64");
    if (!r.ok()) return r.status();
    return static_cast<int64_t>(*r);
  }

  Result<double> GetDouble() {
    auto r = GetU64();
    if (!r.ok()) return r.status();
    double v;
    uint64_t bits = *r;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) return Truncated("varint");
      if (shift >= 64) return Status::Corruption("varint overflow");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) break;
      shift += 7;
    }
    return v;
  }

  Result<std::string_view> GetString() {
    auto len = GetVarint();
    if (!len.ok()) return len.status();
    if (pos_ + *len > data_.size()) return Truncated("string body");
    std::string_view s = data_.substr(pos_, *len);
    pos_ += *len;
    return s;
  }

  /// Advances past `n` bytes the caller reads in place.
  Status Skip(size_t n) {
    if (n > remaining()) return Truncated("skipped bytes");
    pos_ += n;
    return Status::OK();
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ >= data_.size(); }

 private:
  template <typename T>
  Result<T> GetFixed(const char* what) {
    if (pos_ + sizeof(T) > data_.size()) return Truncated(what);
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  Status Truncated(const char* what) {
    return Status::Corruption(std::string("decoder: truncated ") + what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace streach

#endif  // STREACH_COMMON_ENCODING_H_
