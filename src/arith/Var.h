//===- arith/Var.h - Interned logical variables ----------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Logical variables used throughout the pure (Presburger) layer, the
/// specification logic and the symbolic executor. Variables are interned
/// in a process-wide pool; a VarId is a dense index, so analyses can use
/// ordered containers keyed on it and stay deterministic.
///
/// The pool is thread-safe, and supports deterministic *allocation
/// scopes* for the parallel SCC scheduler: a worker that enters
/// VarPool::Scope(B) allocates new ids from the disjoint block B and
/// spells fresh variables "<base>!b<B>!<n>", so the ids and names a
/// group analysis creates depend only on the group's content and block
/// number — never on thread interleaving. Re-interning an existing
/// spelling always returns its original id, which keeps repeated
/// analyses of the same program byte-identical.
///
/// SESSIONS (block leases). A long-lived server cannot use the shared
/// pool directly: spelling->id bindings accumulate forever (unbounded
/// table growth on novel-identifier streams), and the shared per-block
/// next counters eventually exhaust a block, dropping requests into
/// the non-deterministic global-id fallback. A VarPool::Session is a
/// virgin, PRIVATE view of the pool leased to one request: it has its
/// own name<->id maps and its own per-block counters, all starting
/// from zero. While a session is active on a thread (SessionScope),
/// every intern/fresh/name call resolves against the session instead
/// of the shared pool, so
///
///  * the ids a request allocates are POSITIONAL — the i-th
///    allocation of block B is blockStart(B) + i, exactly what a
///    fresh process running only this request would produce. Request
///    output is therefore byte-identical to a serial fresh-context
///    run, independent of server history, arrival order and sibling
///    requests;
///  * the per-block counters reset with every lease, so a long-lived
///    server never exhausts a block (the fallback remains only for a
///    single oversized request — and even that is reproducible,
///    because the fallback counter is session-local too);
///  * the session's spelling tables die with the request: the shared
///    pool does not grow at all under a novel-identifier stream.
///
/// Two sessions may assign the same id to different spellings. That is
/// sound everywhere ids flow: interned formulas shared across sessions
/// are compared and solved structurally (satisfiability is invariant
/// under variable renaming), and rendering always resolves names
/// through the session that built the formula.
///
/// A session may be shared by the worker threads of ONE program
/// analysis (each thread activates it via SessionScope; session state
/// is mutex-protected), but distinct concurrent requests must use
/// distinct sessions — that is the point of the lease.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_ARITH_VAR_H
#define TNT_ARITH_VAR_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace tnt {

/// Dense identifier of an interned variable.
using VarId = uint32_t;

/// Process-wide variable pool. Interning is by name: two lookups of the
/// same spelling yield the same VarId. Fresh variables get a unique
/// suffixed spelling derived from a base name.
class VarPool {
public:
  /// The singleton pool.
  static VarPool &get();

  /// Interns \p Name, returning its id.
  VarId intern(const std::string &Name);

  /// Creates a variable guaranteed not to collide with any variable of
  /// the current analysis. Outside a Scope the spelling is "<Base>!<n>"
  /// with a pool-global counter (never reused); inside a Scope it is
  /// "<Base>!b<block>!<n>" with a per-scope counter, deterministically
  /// reusing the id of a previous run that produced the same spelling.
  VarId fresh(const std::string &Base);

  /// The spelling of \p Id.
  const std::string &name(VarId Id) const;

  /// Number of interned variables so far (the SHARED pool only;
  /// session-local bindings are not counted — their boundedness is
  /// exactly that they die with the session).
  size_t size() const;

  /// RAII deterministic allocation scope (see file comment). Scopes
  /// nest per thread; ids allocated inside come from the scope's block.
  /// Block numbers of concurrently active scopes must be distinct for
  /// id allocation to stay deterministic.
  class Scope {
  public:
    explicit Scope(uint32_t Block);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    friend class VarPool;
    Scope *Prev;
    uint32_t Block;
    uint64_t FreshCounter = 0;
  };

  /// A per-request block lease: a virgin, private pool view (see file
  /// comment). Create one per server request, activate it with
  /// SessionScope on every thread that runs the request, and destroy
  /// it when the response has been rendered — destruction IS the
  /// recycling (counters and spelling tables go with it).
  class Session {
  public:
    Session() = default;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /// Bindings this session holds (its private table size).
    size_t size() const;

    /// Scoped allocations that overflowed a block and fell back to the
    /// session's sequential id region. Nonzero only for an oversized
    /// request; unlike the shared pool's fallback, the ids are still a
    /// deterministic function of the request (the region counter is
    /// session-local and starts at zero).
    uint64_t fallbacks() const;

  private:
    friend class VarPool;
    mutable std::mutex Mu;
    std::map<VarId, std::string> Names;
    std::map<std::string, VarId> Index;
    /// Next offset per block — virgin: every lease starts at zero.
    std::map<uint32_t, uint32_t> BlockNext;
    /// Next id in the session's sequential (unscoped / overflow)
    /// region; disjoint from the block regions, which start at
    /// BlockBase.
    uint32_t NextGlobal = 0;
    uint64_t FreshCounter = 0;
    uint64_t Fallbacks = 0;
  };

  /// RAII activation of a session on the current thread. Nests (the
  /// previous activation, if any, is restored on destruction).
  class SessionScope {
  public:
    explicit SessionScope(Session &S);
    ~SessionScope();
    SessionScope(const SessionScope &) = delete;
    SessionScope &operator=(const SessionScope &) = delete;

  private:
    Session *Prev;
  };

  /// The session active on the current thread, or null.
  static Session *activeSession() { return ActiveSession; }

  /// First id of allocation block \p Block (blocks are disjoint from
  /// the global region and from each other). Blocks above the block
  /// limit would overflow the id space; allocation falls back to the
  /// global region for them (sound; in the SHARED pool this loses
  /// byte-determinism — the fallback tail draws never-reused ids from
  /// a pool-global counter, so spellings depend on pool history. In a
  /// session the fallback region is session-local and the draw order
  /// is a function of the request, so determinism survives).
  static constexpr uint32_t BlockSize = 1u << 18;
  static constexpr uint32_t BlockBase = 1u << 24;
  static constexpr uint32_t MaxBlocks =
      (~static_cast<uint32_t>(0) - BlockBase) / BlockSize;
  static uint32_t blockStart(uint32_t Block) {
    return BlockBase + Block * BlockSize;
  }

  /// The effective block limit: MaxBlocks normally; tests lower it to
  /// exercise the overflow fallback without minting 16k real blocks.
  uint32_t blockLimit() const;
  /// Lowers (or restores) the block limit. Test hook ONLY: changing the
  /// limit between two runs changes which scopes fall back, i.e. which
  /// allocations are deterministic.
  void setBlockLimitForTest(uint32_t Limit);

  /// Scoped allocations that fell back to the global id region (block
  /// number past the limit, or a block's 2^18 ids exhausted), summed
  /// over the shared pool AND every session. A nonzero delta across a
  /// shared-pool run is the witness that the run's byte-determinism
  /// contract is void for the fallback tail; a session-scoped delta
  /// only witnesses an oversized request (see Session::fallbacks).
  uint64_t scopedFallbacks() const;

private:
  VarPool() = default;

  VarId allocate(const std::string &Name);

  static thread_local Scope *ActiveScope;
  static thread_local Session *ActiveSession;

  /// Session-side allocation (S.Mu held by the caller).
  VarId sessionAllocate(Session &S, const std::string &Name);

  mutable std::mutex Mu;
  /// Id -> spelling. Node-based so name() references stay stable under
  /// concurrent interning.
  std::map<VarId, std::string> Names;
  std::map<std::string, VarId> Index;
  /// Next id in the global (unscoped) region.
  uint32_t NextGlobal = 0;
  /// Next offset per block, persisted across scopes so re-running an
  /// analysis with new names never collides with older ids.
  std::map<uint32_t, uint32_t> BlockNext;
  uint64_t FreshCounter = 0;
  /// Effective block limit (see blockLimit()).
  uint32_t BlockLimit = MaxBlocks;
  /// Count of scoped allocations that fell back to the global region
  /// (shared pool + sessions; see scopedFallbacks()).
  uint64_t ScopedFallbacks = 0;
};

/// Convenience: intern \p Name in the global pool.
VarId mkVar(const std::string &Name);
/// Convenience: fresh variable from \p Base in the global pool.
VarId freshVar(const std::string &Base);
/// Convenience: spelling of \p Id.
const std::string &varName(VarId Id);

} // namespace tnt

#endif // TNT_ARITH_VAR_H
