//===- support/UnixSocket.h - Minimal unix-domain stream IO ----*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small POSIX wrapper the concurrent analysis server uses for its
/// unix-domain socket transport: a listener whose blocking accept can
/// be woken from another thread (self-pipe + poll — portable, no
/// reliance on shutdown-on-listener semantics), a buffered
/// line-at-a-time reader, and a write-fully helper. Nothing here knows
/// about the protocol; api/AnalysisServer.cpp composes these into
/// per-connection sessions.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SUPPORT_UNIXSOCKET_H
#define TNT_SUPPORT_UNIXSOCKET_H

#include <string>

namespace tnt {

/// A bound, listening unix-domain socket. Not internally synchronized
/// except where documented: acceptFd() may run on one thread while
/// wake() is called from another; bind/close follow the usual
/// one-owner rules.
class UnixListener {
public:
  UnixListener() = default;
  ~UnixListener();
  UnixListener(const UnixListener &) = delete;
  UnixListener &operator=(const UnixListener &) = delete;

  /// Binds and listens on \p Path (an existing socket file at the path
  /// is unlinked first — stale sockets from a crashed server must not
  /// wedge a restart). False on failure with \p Err set.
  bool bindAndListen(const std::string &Path, std::string *Err);

  /// Blocks until a client connects (returning its fd, owned by the
  /// caller) or wake() is called / the listener is closed (returning
  /// -1). Run from ONE accept thread.
  int acceptFd();

  /// Unblocks a concurrent acceptFd(), making it (and every later
  /// call) return -1. Safe from any thread, idempotent.
  void wake();

  /// Closes the socket and unlinks the path. Implies wake().
  void close();

  bool listening() const { return Fd >= 0; }

private:
  int Fd = -1;
  int WakeR = -1, WakeW = -1; ///< Self-pipe; poll'd next to Fd.
  std::string Path;
};

/// Connects to the unix-domain socket at \p Path, returning the fd or
/// -1 with \p Err set. (Used by tests and the bench driver; real
/// clients are external processes.)
int unixConnect(const std::string &Path, std::string *Err = nullptr);

/// Writes all \p N bytes (retrying short writes and EINTR). False on
/// error; SIGPIPE is avoided via MSG_NOSIGNAL.
bool writeAll(int Fd, const char *Data, size_t N);

/// Buffered newline-delimited reader over a socket fd (the fd stays
/// owned by the caller). One reader per fd.
class LineReader {
public:
  /// The longest line readLine delivers. A peer that sends more bytes
  /// without a newline cannot grow the buffer further: the reader stops
  /// and reports overlong().
  static constexpr size_t MaxLineBytes = size_t(16) << 20;

  explicit LineReader(int Fd) : Fd(Fd) {}

  /// Reads the next '\n'-terminated line (terminator stripped, "\r"
  /// too) into \p Out. False on EOF/error or once a line exceeds
  /// MaxLineBytes; a final unterminated chunk before EOF is delivered
  /// as a last line.
  bool readLine(std::string &Out);

  /// True once readLine stopped at a line longer than MaxLineBytes.
  bool overlong() const { return Overlong; }

private:
  int Fd;
  std::string Buf;
  size_t Pos = 0;  ///< Start of the unread tail.
  size_t Scan = 0; ///< Bytes before Scan hold no newline past Pos.
  bool Eof = false;
  bool Overlong = false;
};

/// close(2) wrapper (EINTR-safe no-op on -1), so callers do not need
/// <unistd.h>.
void closeFd(int Fd);

/// shutdown(2) both directions — unblocks a reader stuck in read(2) on
/// another thread without racing the fd's lifetime the way close()
/// would.
void shutdownFd(int Fd);

} // namespace tnt

#endif // TNT_SUPPORT_UNIXSOCKET_H
