// Byte buffer with cursored reads/writes, used for intermediate-value
// serialization (the Pack/Unpack stages of TeraSort and the packet
// framing of CodedTeraSort).
//
// The layout written by the Writer methods is little-endian and
// self-describing only to the extent callers make it so; the terasort
// and coding modules define explicit wire formats on top of this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace cts {

// Growable byte array with an explicit read cursor. Writes always
// append; reads consume from the cursor. A Buffer is cheap to move and
// deliberately not copyable implicitly (use Clone()) so accidental
// copies of multi-megabyte shuffle payloads show up in review.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  // Explicit deep copy.
  Buffer Clone() const {
    Buffer b(bytes_);
    b.cursor_ = cursor_;
    return b;
  }

  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const std::uint8_t* data() const { return bytes_.data(); }
  std::uint8_t* data() { return bytes_.data(); }
  std::span<const std::uint8_t> span() const { return bytes_; }

  void reserve(std::size_t n) { bytes_.reserve(n); }
  void clear() {
    bytes_.clear();
    cursor_ = 0;
  }
  void resize(std::size_t n) { bytes_.resize(n); }

  // ---- Writing (appends at the end) ----

  void write_bytes(std::span<const std::uint8_t> src) {
    bytes_.insert(bytes_.end(), src.begin(), src.end());
  }

  void write_u8(std::uint8_t v) { bytes_.push_back(v); }

  void write_u32(std::uint32_t v) { write_le(v); }
  void write_u64(std::uint64_t v) { write_le(v); }
  void write_i32(std::int32_t v) { write_le(static_cast<std::uint32_t>(v)); }

  // Length-prefixed string.
  void write_string(const std::string& s) {
    write_u64(s.size());
    write_bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  // ---- Reading (consumes from the cursor) ----

  std::size_t remaining() const { return bytes_.size() - cursor_; }
  std::size_t cursor() const { return cursor_; }
  void rewind() { cursor_ = 0; }
  void seek(std::size_t pos) {
    CTS_CHECK_LE(pos, bytes_.size());
    cursor_ = pos;
  }

  void read_bytes(std::span<std::uint8_t> dst) {
    CTS_CHECK_MSG(dst.size() <= remaining(),
                  "buffer underrun: want " << dst.size() << " have "
                                           << remaining());
    std::memcpy(dst.data(), bytes_.data() + cursor_, dst.size());
    cursor_ += dst.size();
  }

  // Zero-copy view of the next n bytes; the view is invalidated by any
  // mutation of the buffer.
  std::span<const std::uint8_t> read_view(std::size_t n) {
    CTS_CHECK_LE(n, remaining());
    std::span<const std::uint8_t> v(bytes_.data() + cursor_, n);
    cursor_ += n;
    return v;
  }

  std::uint8_t read_u8() {
    CTS_CHECK_GE(remaining(), std::size_t{1});
    return bytes_[cursor_++];
  }

  std::uint32_t read_u32() { return read_le<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_le<std::uint64_t>(); }
  std::int32_t read_i32() {
    return static_cast<std::int32_t>(read_le<std::uint32_t>());
  }

  std::string read_string() {
    const std::size_t n = read_u64();
    CTS_CHECK_LE(n, remaining());
    std::string s(reinterpret_cast<const char*>(bytes_.data() + cursor_), n);
    cursor_ += n;
    return s;
  }

  // Steals the underlying byte vector (resets the buffer).
  std::vector<std::uint8_t> take() {
    cursor_ = 0;
    return std::move(bytes_);
  }

  bool operator==(const Buffer& other) const { return bytes_ == other.bytes_; }

 private:
  template <typename T>
  void write_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  template <typename T>
  T read_le() {
    CTS_CHECK_GE(remaining(), sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(bytes_[cursor_ + i]) << (8 * i);
    }
    cursor_ += sizeof(T);
    return v;
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace cts
