#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/status.hpp"

namespace cliz {

/// Growable little-endian byte sink used to assemble compressed streams.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `buf`'s storage as the (emptied) output buffer, so a caller
  /// can round-trip a long-lived vector through a writer without losing
  /// its capacity: `ByteWriter w(std::move(v)); ...; v = std::move(w).take()`.
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(T v) {
    // resize + memcpy rather than insert: same codegen, but does not trip
    // GCC 12's array-bounds false positive when inlined into large callers.
    const std::size_t pos = buf_.size();
    buf_.resize(pos + sizeof(T));
    std::memcpy(buf_.data() + pos, &v, sizeof(T));
  }

  /// LEB128 variable-length encoding for non-negative integers; keeps
  /// headers compact without fixed-width waste.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zig-zag + LEB128 for signed integers.
  void put_svarint(std::int64_t v) {
    put_varint((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
  }

  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Length-prefixed nested block (varint size, then payload).
  void put_block(std::span<const std::uint8_t> bytes) {
    put_varint(bytes.size());
    put_bytes(bytes);
  }

  void put_string(const std::string& s) {
    put_varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Drops the contents, keeping the capacity (CodecContext reuse).
  void clear() noexcept { buf_.clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a compressed stream. Every read validates the
/// remaining length, so truncated or corrupt streams raise Error instead of
/// reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8() {
    CLIZ_REQUIRE(pos_ < data_.size(), "stream truncated (u8)");
    return data_[pos_++];
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    CLIZ_REQUIRE(pos_ + sizeof(T) <= data_.size(), "stream truncated");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      CLIZ_REQUIRE(shift < 64, "varint overlong");
      const std::uint8_t b = get_u8();
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t get_svarint() {
    const std::uint64_t z = get_varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::span<const std::uint8_t> get_bytes(std::size_t n) {
    CLIZ_REQUIRE(pos_ + n <= data_.size(), "stream truncated (bytes)");
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> get_block() {
    const std::uint64_t n = get_varint();
    CLIZ_REQUIRE(n <= data_.size() - pos_, "block length exceeds stream");
    return get_bytes(static_cast<std::size_t>(n));
  }

  std::string get_string() {
    auto b = get_block();
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cliz
