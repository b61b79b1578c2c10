//===- support/UnixSocket.cpp ---------------------------------*- C++ -*-===//

#include "support/UnixSocket.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace tnt;

namespace {

bool fillSockAddr(const std::string &Path, sockaddr_un &Addr,
                  std::string *Err) {
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Err != nullptr)
      *Err = "socket path too long: " + Path;
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

std::string errnoMsg(const std::string &What) {
  return What + ": " + std::strerror(errno);
}

} // namespace

UnixListener::~UnixListener() { close(); }

bool UnixListener::bindAndListen(const std::string &P, std::string *Err) {
  sockaddr_un Addr;
  if (!fillSockAddr(P, Addr, Err))
    return false;
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    if (Err != nullptr)
      *Err = errnoMsg("pipe");
    return false;
  }
  int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0) {
    if (Err != nullptr)
      *Err = errnoMsg("socket");
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return false;
  }
  // A stale socket file (crashed predecessor) must not wedge the bind;
  // a LIVE predecessor still loses the race intentionally — last
  // binder wins, matching the restart-over-dead-server use case.
  ::unlink(P.c_str());
  if (::bind(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(S, 64) != 0) {
    if (Err != nullptr)
      *Err = errnoMsg("bind/listen " + P);
    ::close(S);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return false;
  }
  Fd = S;
  WakeR = Pipe[0];
  WakeW = Pipe[1];
  Path = P;
  return true;
}

int UnixListener::acceptFd() {
  for (;;) {
    if (Fd < 0)
      return -1;
    pollfd Fds[2] = {{Fd, POLLIN, 0}, {WakeR, POLLIN, 0}};
    int N = ::poll(Fds, 2, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if ((Fds[1].revents & POLLIN) != 0)
      return -1; // Woken: shutting down.
    if ((Fds[0].revents & POLLIN) == 0)
      continue;
    int Client = ::accept(Fd, nullptr, nullptr);
    if (Client >= 0)
      return Client;
    if (errno == EINTR || errno == ECONNABORTED)
      continue;
    return -1;
  }
}

void UnixListener::wake() {
  if (WakeW >= 0) {
    char C = 'w';
    // Best effort; a full pipe already means a pending wake.
    (void)!::write(WakeW, &C, 1);
  }
}

void UnixListener::close() {
  wake();
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  if (!Path.empty()) {
    ::unlink(Path.c_str());
    Path.clear();
  }
  // The wake pipe outlives the socket close so a racing acceptFd still
  // sees the wake; release it last.
  if (WakeR >= 0) {
    ::close(WakeR);
    ::close(WakeW);
    WakeR = WakeW = -1;
  }
}

int tnt::unixConnect(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr, Err))
    return -1;
  int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0) {
    if (Err != nullptr)
      *Err = errnoMsg("socket");
    return -1;
  }
  if (::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    if (Err != nullptr)
      *Err = errnoMsg("connect " + Path);
    ::close(S);
    return -1;
  }
  return S;
}

bool tnt::writeAll(int Fd, const char *Data, size_t N) {
  size_t Done = 0;
  while (Done < N) {
#ifdef MSG_NOSIGNAL
    ssize_t W = ::send(Fd, Data + Done, N - Done, MSG_NOSIGNAL);
#else
    ssize_t W = ::write(Fd, Data + Done, N - Done);
#endif
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += static_cast<size_t>(W);
  }
  return true;
}

bool LineReader::readLine(std::string &Out) {
  while (!Overlong) {
    size_t Nl = Buf.find('\n', Scan);
    size_t End = Nl == std::string::npos ? Buf.size() : Nl;
    if (End - Pos > MaxLineBytes) {
      Overlong = true;
      Buf.clear();
      Pos = Scan = 0;
      break;
    }
    if (Nl != std::string::npos || (Eof && Pos < Buf.size())) {
      Out.assign(Buf, Pos, End - Pos);
      if (!Out.empty() && Out.back() == '\r')
        Out.pop_back();
      Pos = Scan = Nl == std::string::npos ? Buf.size() : Nl + 1;
      // Compact once the consumed prefix dominates, keeping the buffer
      // proportional to the unread tail.
      if (Pos > 4096 && Pos * 2 > Buf.size()) {
        Buf.erase(0, Pos);
        Pos = Scan = 0;
      }
      return true;
    }
    if (Eof)
      break;
    // Only the bytes read next can hold the newline.
    Scan = Buf.size();
    char Chunk[4096];
    ssize_t R = ::read(Fd, Chunk, sizeof(Chunk));
    if (R < 0) {
      if (errno != EINTR)
        Eof = true;
      continue;
    }
    if (R == 0) {
      Eof = true;
      continue;
    }
    Buf.append(Chunk, static_cast<size_t>(R));
  }
  return false;
}

void tnt::closeFd(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
}

void tnt::shutdownFd(int Fd) {
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}
