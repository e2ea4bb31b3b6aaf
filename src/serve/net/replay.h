#ifndef YVER_SERVE_NET_REPLAY_H_
#define YVER_SERVE_NET_REPLAY_H_

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace yver::serve::net {

/// Record/replay capture files (DESIGN.md §12): the load generator's
/// record mode writes every query frame it puts on the wire, byte for
/// byte, so a later replay run sends the identical byte stream and — by
/// the server's determinism contract — receives identical response bytes.
///
/// File layout:
///
///   offset 0  magic    "YWRC" (0x59 0x57 0x52 0x43)
///   offset 4  version  wire::kVersion
///   offset 5  reserved 3 zero bytes
///   offset 8  concatenated wire frames, exactly as sent
///
/// The frames carry their own lengths, so the file needs no frame count:
/// a truncated tail is detected (DATA_LOSS) rather than silently dropped.

inline constexpr char kCaptureMagic[4] = {0x59, 0x57, 0x52, 0x43};
inline constexpr size_t kCaptureHeaderSize = 8;

/// Streaming writer for record mode. Append takes raw frame bytes
/// (already encoded); Close flushes and reports write errors. The
/// destructor closes without error reporting — call Close when the
/// capture matters.
class CaptureWriter {
 public:
  static util::StatusOr<CaptureWriter> Open(const std::string& path);

  CaptureWriter(CaptureWriter&&) = default;
  CaptureWriter& operator=(CaptureWriter&&) = default;

  util::Status Append(std::string_view frame_bytes);
  util::Status Close();

 private:
  CaptureWriter() = default;

  std::ofstream f_;
};

/// Reads a capture back as one raw frame per entry, validating the header
/// and every frame (magic, version, type, length) on the way in. Only
/// wire::kVersion captures load; any other version is INVALID_ARGUMENT.
/// NOT_FOUND when the file cannot be opened, INVALID_ARGUMENT on a bad
/// header or a non-query frame, DATA_LOSS on a truncated tail.
util::StatusOr<std::vector<std::string>> LoadCapture(
    const std::string& path);

}  // namespace yver::serve::net

#endif  // YVER_SERVE_NET_REPLAY_H_
