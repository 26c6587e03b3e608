#include "trace/pcap.h"

#include <array>
#include <cstring>
#include <fstream>

namespace vca {

namespace {

void put_u16(std::ostream& os, uint16_t v) {
  std::array<char, 2> b = {static_cast<char>(v & 0xff),
                           static_cast<char>((v >> 8) & 0xff)};
  os.write(b.data(), b.size());
}

void put_u32(std::ostream& os, uint32_t v) {
  std::array<char, 4> b = {static_cast<char>(v & 0xff),
                           static_cast<char>((v >> 8) & 0xff),
                           static_cast<char>((v >> 16) & 0xff),
                           static_cast<char>((v >> 24) & 0xff)};
  os.write(b.data(), b.size());
}

}  // namespace

PcapWriter::PcapWriter(std::ostream& os, uint32_t snaplen)
    : os_(os), snaplen_(snaplen) {
  put_u32(os_, kPcapMagicNanos);
  put_u16(os_, kPcapVersionMajor);
  put_u16(os_, kPcapVersionMinor);
  put_u32(os_, 0);  // thiszone
  put_u32(os_, 0);  // sigfigs
  put_u32(os_, snaplen_);
  put_u32(os_, kPcapLinkEthernet);
}

void PcapWriter::write(const PacketRecord& rec) {
  uint32_t incl = static_cast<uint32_t>(rec.bytes.size());
  if (incl > snaplen_) incl = snaplen_;
  put_u32(os_, static_cast<uint32_t>(rec.ts_ns / 1'000'000'000));
  put_u32(os_, static_cast<uint32_t>(rec.ts_ns % 1'000'000'000));
  put_u32(os_, incl);
  put_u32(os_, rec.wire_bytes);
  os_.write(reinterpret_cast<const char*>(rec.bytes.data()), incl);
}

PcapFileReader::PcapFileReader(const std::string& path, size_t buffer_bytes)
    : file_(path, std::ios::binary), buf_(std::max<size_t>(buffer_bytes, 64)) {
  if (!file_) return;
  if (!ensure(24)) return;  // global header
  uint32_t magic = u32_at(buf_pos_);
  if (magic == kPcapMagicNanos) {
    nanosecond_ = true;
  } else if (magic == kPcapMagicMicros) {
    nanosecond_ = false;
  } else {
    return;  // byte-swapped or foreign capture: not ours
  }
  snaplen_ = u32_at(buf_pos_ + 16);
  link_type_ = u32_at(buf_pos_ + 20);
  buf_pos_ += 24;
  ok_ = true;
}

bool PcapFileReader::ensure(size_t need) {
  if (buf_len_ - buf_pos_ >= need) return true;
  // Compact the unread tail to the front, then refill from disk.
  std::memmove(buf_.data(), buf_.data() + buf_pos_, buf_len_ - buf_pos_);
  buf_len_ -= buf_pos_;
  buf_pos_ = 0;
  if (need > buf_.size()) buf_.resize(need);  // snaplen exceeds the chunk
  while (buf_len_ < need) {
    file_.read(buf_.data() + buf_len_, static_cast<std::streamsize>(
                                           buf_.size() - buf_len_));
    size_t got = static_cast<size_t>(file_.gcount());
    if (got == 0) return false;
    buf_len_ += got;
  }
  return true;
}

uint32_t PcapFileReader::u32_at(size_t off) const {
  const auto* b = reinterpret_cast<const uint8_t*>(buf_.data() + off);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

bool PcapFileReader::next(PacketRecord* out) {
  if (!ok_) return false;
  if (!ensure(16)) return false;  // clean EOF (or truncated header)
  uint32_t sec = u32_at(buf_pos_);
  uint32_t frac = u32_at(buf_pos_ + 4);
  uint32_t incl = u32_at(buf_pos_ + 8);
  uint32_t orig = u32_at(buf_pos_ + 12);
  if (incl > kMaxRecordBytes) {
    ok_ = false;  // corrupt length: stop rather than allocate it
    return false;
  }
  if (!ensure(16 + incl)) return false;  // truncated capture body
  out->ts_ns = static_cast<int64_t>(sec) * 1'000'000'000 +
               (nanosecond_ ? frac : static_cast<int64_t>(frac) * 1000);
  out->wire_bytes = orig;
  out->bytes.assign(
      reinterpret_cast<const uint8_t*>(buf_.data() + buf_pos_ + 16),
      reinterpret_cast<const uint8_t*>(buf_.data() + buf_pos_ + 16 + incl));
  buf_pos_ += 16 + incl;
  return true;
}

bool write_pcap_file(const std::string& path,
                     const std::vector<PacketRecord>& records,
                     uint32_t snaplen) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  PcapWriter w(f, snaplen);
  for (const PacketRecord& rec : records) w.write(rec);
  return f.good();
}

std::vector<PacketRecord> read_pcap_file(const std::string& path, bool* ok) {
  PcapFileReader r(path);  // chunked: the file streams, never loads whole
  if (ok != nullptr) *ok = r.ok();
  if (!r.ok()) return {};
  std::vector<PacketRecord> out;
  PacketRecord rec;
  while (r.next(&rec)) out.push_back(std::move(rec));
  return out;
}

}  // namespace vca
