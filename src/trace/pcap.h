// libpcap-format trace files for the simulated tcpdump.
//
// A PacketRecord is one captured frame: a nanosecond timestamp, the
// original on-the-wire length, and the captured bytes (possibly
// truncated at a snap length, exactly like `tcpdump -s N`). PcapWriter
// serializes a record stream into a standard libpcap file (nanosecond
// magic 0xa1b23c4d, LINKTYPE_ETHERNET) that tcpdump/tshark/Wireshark
// open directly; PcapFileReader streams one back, record by record.
//
// The on-disk format is always little-endian regardless of host, so
// traces are portable and the golden-header test can assert exact bytes.
#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

namespace vca {

struct PacketRecord {
  int64_t ts_ns = 0;           // capture time (virtual clock, ns since t=0)
  uint32_t wire_bytes = 0;     // original frame length on the wire
  std::vector<uint8_t> bytes;  // captured bytes, <= min(wire_bytes, snaplen)

  bool operator==(const PacketRecord&) const = default;
};

// Standard libpcap constants (https://wiki.wireshark.org/Development/
// LibpcapFileFormat). We write the nanosecond-resolution variant so the
// simulator's exact virtual timestamps survive the round trip.
constexpr uint32_t kPcapMagicNanos = 0xa1b23c4d;
constexpr uint32_t kPcapMagicMicros = 0xa1b2c3d4;
constexpr uint16_t kPcapVersionMajor = 2;
constexpr uint16_t kPcapVersionMinor = 4;
constexpr uint32_t kPcapLinkEthernet = 1;  // LINKTYPE_ETHERNET
constexpr uint32_t kPcapDefaultSnaplen = 96;

class PcapWriter {
 public:
  // Writes the global header immediately.
  PcapWriter(std::ostream& os, uint32_t snaplen = kPcapDefaultSnaplen);

  // Appends one record. Bytes beyond the writer's snaplen are truncated
  // (the record keeps its original wire length, like tcpdump -s).
  void write(const PacketRecord& rec);

  uint32_t snaplen() const { return snaplen_; }

 private:
  std::ostream& os_;
  uint32_t snaplen_;
};

// Chunked file reader: iterates a libpcap file through a fixed-size read
// buffer, so memory stays O(buffer) no matter how large the capture is.
// This is the reader both the offline pipeline and the streaming
// service's replay path use — a multi-gigabyte trace streams record by
// record, never loaded whole.
class PcapFileReader {
 public:
  static constexpr size_t kDefaultBufferBytes = 64 * 1024;
  // A claimed capture length beyond this marks the file as corrupt
  // (jumbo frames top out far below it); keeps a bad length field from
  // driving an unbounded allocation.
  static constexpr uint32_t kMaxRecordBytes = 1 << 20;

  explicit PcapFileReader(const std::string& path,
                          size_t buffer_bytes = kDefaultBufferBytes);

  bool ok() const { return ok_; }
  uint32_t link_type() const { return link_type_; }
  uint32_t snaplen() const { return snaplen_; }
  bool nanosecond() const { return nanosecond_; }

  // Reads the next record; false at EOF, on a truncated file, or on a
  // corrupt length field. Refills the chunk buffer from disk as needed.
  bool next(PacketRecord* out);

 private:
  bool ensure(size_t need);  // >= need unread bytes buffered
  uint32_t u32_at(size_t off) const;

  std::ifstream file_;
  std::vector<char> buf_;
  size_t buf_pos_ = 0;  // next unread byte
  size_t buf_len_ = 0;  // valid bytes in buf_
  bool ok_ = false;
  bool nanosecond_ = true;
  uint32_t link_type_ = 0;
  uint32_t snaplen_ = 0;
};

// Convenience file round trip. write_pcap_file returns false if the file
// cannot be opened; read_pcap_file returns an empty vector and sets *ok
// (when non-null) to false on open/parse failure.
bool write_pcap_file(const std::string& path,
                     const std::vector<PacketRecord>& records,
                     uint32_t snaplen = kPcapDefaultSnaplen);
std::vector<PacketRecord> read_pcap_file(const std::string& path,
                                         bool* ok = nullptr);

}  // namespace vca
