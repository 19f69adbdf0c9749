//===- engine/Incremental.h - Resumable check sessions ----------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming, resumable counterparts of the batch CheckSession: append one
/// event at a time, ask for a verdict at any point, and pay only for the
/// suffix since the last conclusive answer. This is the monitoring shape
/// speculative linearizability is about — mode switches happen while the
/// history unfolds — and it exploits the observation (Bouajjani et al.'s
/// reachability reduction; Hamza's complexity analysis) that checking an
/// extension of a history revisits the prefix's reachable states.
///
/// Four mechanisms carry the incrementality:
///
///   * **Per-event obligation deltas.** Appending an event updates the
///     obligation set in O(#obligations): an invocation bumps a running
///     dense invoked-count vector; a response snapshots it as the new
///     obligation's availability (Definition 9) and derives its real-time
///     predecessors from the per-client open-invocation table. Existing
///     obligations are never touched — an availability snapshot taken at
///     response index i is a function of the prefix up to i only.
///
///   * **A retained success frontier with retained replay state.** After a
///     Yes, the witness chain (master, commit rows, in dense ids) is kept,
///     *together with* the materialized AdtState, used counts, and hashes
///     at the accepting leaf (engine FrontierState). A later verdict seeds
///     the search with the chain (ChainProblem::SeedCommits) and adopts
///     the retained state instead of replaying the seed prefix: the run
///     starts at the old accepting leaf with zero seed replay and only has
///     to place the new obligations on top — O(1) amortized per event
///     when the extension is linearizable, which is the steady state of
///     monitoring a correct implementation. If that resumed subtree fails,
///     a full root search (still memo-accelerated) restores completeness.
///     The slin session keeps one frontier *per interpretation* of the
///     relation's family, keyed by interpretation hash: a mode switch
///     (new init action, changed reading) moves the memo epoch but only
///     invalidates — never discards — the frontiers; an interpretation
///     that recurs resumes from its retained chain, and the accepting-leaf
///     predicate re-validates every abort constraint, so resumption stays
///     sound across non-monotone deltas.
///
///   * **Obligation retirement at quiescent cuts.** The engine's exact
///     search carries at most 64 commit obligations, so an unbounded
///     stream needs the session to *retire* settled history: when the live
///     window is full and a new response arrives, the session looks for
///     the latest *quiescence cut* — a trace position where every earlier
///     invocation has responded (so real-time order forces every pre-cut
///     commit before every later operation) — and folds the cached Yes
///     chain's committed prefix up to that cut into a retired prefix
///     (dense ids + commit rows + a retired-boundary FrontierState),
///     drops the retired obligations from the live window, and remaps the
///     remaining MustFollow masks to window-relative bit positions.
///     Searches then run over the live window only, behind the engine's
///     ChainProblem::SeedBase: the retired prefix is never re-materialized
///     or re-replayed, so a steady-state verdict is O(window) — O(1) for a
///     bounded-concurrency stream — no matter how long the trace grows.
///     The soundness contract shifts asymmetrically: Yes still always
///     carries a replayable witness (retired prefix ++ live chain), but a
///     live-window No only rules out completions of the *pinned* retired
///     chain — a different linearization of the retired region might have
///     worked — so it is reported as Unknown with the stable
///     WindowRetiredReason. Retirement is *lazy* (nothing is retired while
///     the whole history fits the window), so verdicts on <= 64-obligation
///     traces are bit-identical to the batch checker's. When the window is
///     full and no retirable cut exists (no cached Yes, > 64 concurrent
///     operations, or a slin stream with aborts), the append itself
///     records the structural state (WindowOverflowReason +
///     SessionStats::WindowOverflows) and verdicts return it immediately
///     instead of paying a doomed problem build and search.
///
///   * **A lineage-salted memo chain.** All transposition entries of one
///     growing trace are recorded under a single *lineage salt*. A failed
///     subtree w.r.t. a prefix's obligation set stays failed for every
///     extension — deleting the extension's extra commits from a
///     hypothetical witness yields a witness for the prefix — so every
///     retained entry remains a sound prune as the trace grows, and a
///     shared prefix between traces hits the same retained memo. Entries
///     are *salted out* (the lineage salt moves on, orphaning them in the
///     bounded table) whenever they could be unsound: on reset() to an
///     unrelated trace, on rewindToMark() past suffix-contaminated
///     entries, after a budget-limited run (ancestors of an unexplored
///     subtree were recorded as failed), and — for the slin session — on
///     any non-monotone delta (a new init action changes the
///     interpretation family and the seed; a new invocation under the
///     relaxed abort reading grows every abort budget).
///
/// Verdicts are preserved exactly: conclusive (Yes/No) answers equal the
/// batch checkers' on the materialized trace (the search is complete and
/// every prune is sound); only which traces exhaust a *budget* can differ,
/// as with warm batch sessions. Three zero-search absorptions shortcut the
/// common monitor path: an appended invocation changes no obligation (the
/// cached verdict stands, returned without expanding a single node); No is
/// final — an extension of a non-linearizable trace is non-linearizable
/// (its witness would restrict to one for the prefix); and so is the lin
/// session's WindowRetired Unknown, which is the same kind of conclusive
/// No, proven for the live window behind the pinned retired prefix, and is
/// cached and served like a No. Under a weak order a cross-client
/// invocation can credit an input to a live response and relax the
/// problem; that drops both cached non-Yes verdicts, and the next verdict
/// searches again. Absorbed Yes verdicts still hand back the retained
/// witness, so they cost a copy of it; only the search work is zero.
///
/// markPrefix()/rewindToMark() expose the shared-prefix form of the same
/// machinery to the corpus driver: verdict at the group's common prefix,
/// seal that lineage (entries stay probe-able via a second salt), then
/// check each member by appending its suffix and rewinding back.
///
/// Sessions are single-threaded; use one per thread.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_ENGINE_INCREMENTAL_H
#define SLIN_ENGINE_INCREMENTAL_H

#include "engine/CheckSession.h"
#include "engine/OrderRelation.h"
#include "trace/TraceBuilder.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace slin {

/// Stable reason string for the structural Unknown a windowed session
/// reports once its live obligation window overflowed with no retirable
/// quiescent prefix. Recorded at append time (SessionStats::WindowOverflows)
/// and returned by every subsequent verdict without a search.
inline constexpr char WindowOverflowReason[] =
    "live obligation window exceeded 64 with no retirable quiescent prefix; "
    "exact search not attempted";

/// Stable reason string for the Unknown a windowed session reports when the
/// live-window search (or its exact first-64 restriction) concluded No but
/// obligations were already retired: a conclusive No would require
/// backtracking into the retired prefix, whose linearization is pinned.
/// (Yes verdicts are unaffected — they carry a replayable witness of
/// retired prefix ++ live chain.) The lin session caches this Unknown like
/// a No: every later verdict returns it without a search, also while a
/// straggler pins the window past its limit, until a weak-order invoke
/// credit re-opens the problem.
inline constexpr char WindowRetiredReason[] =
    "WindowRetired: no completion extends the retired prefix; a conclusive "
    "No would require backtracking into retired obligations";

/// Stable reason string for the graded Unknown (VerdictGrade::BoundedYes) a
/// windowed session reports while a straggler pins the cut past the 64-slot
/// window: the exact first-64 sub-problem linearized, and the out-of-window
/// interference stayed within IncrementalOptions::InterferenceBound. See
/// the Grade/Interference fields of LinCheckResult and SlinVerdict.
inline constexpr char WindowBoundedReason[] =
    "BoundedYes: straggler pins the cut past the 64-slot window; the first "
    "64 live obligations linearized and only bounded out-of-window "
    "interference remains unchecked";

/// Stable reason string for the structured Unknown a slin session reports
/// when the live window overflowed on an abort-carrying stream: aborts rule
/// out both retirement (Abort Order caps every commit's availability by
/// every abort's budget, so no prefix can be frozen) and the graded bounded
/// fallback (the first-64 restriction is not sound once abort budgets span
/// the window). Distinct from the flat WindowOverflowReason so monitors can
/// tell "straggler pins the cut" from "aborts pin the whole window".
inline constexpr char WindowAbortPinnedReason[] =
    "AbortPinned: live obligation window exceeded 64 on an abort-carrying "
    "stream; abort budgets pin every slot, so neither retirement nor the "
    "bounded first-64 fallback applies";

/// The engine's exact search carries at most this many commit obligations
/// per run (a 64-bit committed mask); both sessions keep their live window
/// at or under it via retirement.
inline constexpr std::size_t IncrementalWindowLimit = 64;

/// Tuning knobs for the incremental sessions.
struct IncrementalOptions {
  /// Maximum capacity of the session's transposition table, which starts
  /// unallocated and grows by doubling.
  std::size_t TranspositionCapacity = 1u << 20;
  /// Drive the search through the mutate/undo protocol when available.
  bool UseUndoStates = true;
  /// Resume searches from the retained success frontier and retained memo.
  /// Off forces a freshly salted full root search per verdict — same
  /// verdicts, no reuse; exists for differential testing and as the
  /// reference point the resumable path is benchmarked against.
  bool Resume = true;
  /// Drive steady-state verdicts data-oriented: the lin session maintains
  /// its live obligation window as persistent parallel arrays, hands the
  /// engine a ChainProblemView over them (no per-verdict ChainProblem
  /// materialization), and serves the 1-new-obligation resumed case from
  /// an in-session fast path (branchless word-mask checks, no engine
  /// entry). Verdicts, node counts, and every retained artifact are
  /// bit-identical with this off; off exists for differential testing and
  /// as the reference the fast path is locked against.
  bool DataOriented = true;
  /// Materialize the trace view (TraceBuilder retention). Off makes ingest
  /// O(1)-space and allocation-free for unbounded outcome-only monitors;
  /// trace() then returns an empty view (size() still counts), and
  /// markPrefix/rewindToMark remain usable (they snapshot ingest state,
  /// not the view). The slin session builds its interpretation family from
  /// the retained init actions alone
  /// (InitRelation::interpretationsFromInits), so it honors this too.
  bool RetainTrace = true;
  /// Keep the materialized retired prefix (dense ids + commit rows) for
  /// witness completion and the engine's replay fallback. Off makes the
  /// retired prefix a pure counter — required for a zero-allocation
  /// unbounded monitor (the prefix otherwise grows without bound) — at the
  /// cost of witnesses (and, lin, frontierHistory()) omitting the retired
  /// region and of the replay fallback degrading to a sound Unknown when
  /// the retained boundary state cannot be adopted (non-undo ADTs, or
  /// UseUndoStates off). In the slin session the per-interpretation
  /// retired chains obey the same switch.
  bool RetainRetiredWitness = true;
  /// Graded-fallback bound for pinned overflow excursions: while a
  /// straggler pins the cut past the 64-slot window, a verdict searches
  /// the exact first-64 sub-problem (a sound restriction of the full
  /// problem) and reports Grade == VerdictGrade::BoundedYes when it
  /// linearizes with at most this many out-of-window completions left
  /// unchecked (the verdict's Interference). 0 disables the fallback —
  /// every pinned verdict is then the flat WindowOverflowReason Unknown.
  std::size_t InterferenceBound = 16;
  /// The happens-before relation every MustFollow mask and retirement cut
  /// is derived under (engine/OrderRelation.h). Strict is the paper's
  /// real-time order and is bit-identical to the pre-parameterized
  /// sessions; TsoHb weakens cross-client order to flushed responses.
  OrderRelationKind Order = OrderRelationKind::Strict;
};

/// The live obligation window as a structure of arrays: engine-ready
/// CommitObligation slots (tag, input id, expected output, MustFollow
/// mask word), a parallel invoke-index array (for mask rebuilds), and one
/// flat availability store of power-of-two-stride rows. Maintained
/// incrementally — append writes one slot and one row, retirement slides
/// a base index, fold shifts the mask words — so verdict() hands the
/// engine a view over this persistent storage instead of materializing a
/// fresh problem. Rows are zero-extended to the stride at write time,
/// which realizes the old lazy zero-extension contract (an input first
/// interned after a response cannot have been invoked before it); when
/// the alphabet outgrows the stride, ensureStride() relays the live rows
/// out once at the next power of two. Trivially copyable (mark/rewind
/// deep-copies it wholesale); the slots' Available pointers are only
/// published by finalize() immediately before an engine run, so copies
/// never carry live internal pointers. Shared by both sessions: the slin
/// session's responses are obligations of exactly this shape, common to
/// every interpretation (per-interpretation availability differences ride
/// on ChainProblemView::AvailOverride overlay rows instead).
class LiveWindow {
public:
  std::size_t size() const { return N; }
  bool empty() const { return N == 0; }
  std::size_t tag(std::size_t Q) const { return Slots[Base + Q].Tag; }
  InputId in(std::size_t Q) const { return Slots[Base + Q].In; }
  const Output &out(std::size_t Q) const { return Slots[Base + Q].Out; }
  std::uint64_t mustFollow(std::size_t Q) const {
    return Slots[Base + Q].MustFollow;
  }
  std::size_t invokeIdx(std::size_t Q) const { return Invokes[Base + Q]; }
  ClientId client(std::size_t Q) const { return Clients[Base + Q]; }
  std::uint32_t meta(std::size_t Q) const { return Metas[Base + Q]; }
  const std::int32_t *availRow(std::size_t Q) const {
    return AvailStore.data() + (Base + Q) * Stride;
  }
  std::size_t stride() const { return Stride; }

  /// Appends one obligation: slot fields, the order-relation site data
  /// (\p Client, \p Meta — consulted by OrderRelation mask rebuilds and
  /// retirement gates), plus an availability row snapshotting \p Invoked
  /// (zero-extended to the stride). Grows or compacts storage only when
  /// the high end is reached — steady-state appends after retirement reuse
  /// the vacated front, allocation-free. Storage starts at 8 rows and
  /// doubles only when every row is live, so it follows the window's
  /// high-water mark (and keeps it after an overflow excursion ends).
  void pushResponse(std::size_t Tag, InputId In, const Output &Out,
                    std::size_t InvokeIdx, std::uint64_t MustFollow,
                    ClientId Client, std::uint32_t Meta,
                    const std::vector<std::int32_t> &Invoked);

  /// Credits one later invocation of \p In by \p Invoker to every live row
  /// the relation leaves unordered w.r.t. it (see
  /// OrderRelation::creditsLaterInvoke). Returns whether any row grew —
  /// the caller's signal that cached No verdicts and retained memo
  /// failures are stale. A no-op (and never called) under Strict; writes
  /// into existing rows, so the event path stays allocation-free except
  /// for the rare stride regrow a first-seen input forces.
  bool creditInvoke(const OrderRelation &Order, ClientId Invoker, InputId In);

  /// Retires the first \p K live obligations (slides the base; storage
  /// is reused by later appends).
  void eraseFront(std::size_t K) {
    Base += K;
    N -= K;
    if (N == 0)
      Base = 0;
  }

  /// Shifts every live MustFollow mask right by \p K (window-relative
  /// bit positions after retiring K obligations).
  void shiftMasks(std::size_t K) {
    for (std::size_t Q = 0; Q != N; ++Q)
      Slots[Base + Q].MustFollow >>= K;
  }

  void setMustFollow(std::size_t Q, std::uint64_t M) {
    Slots[Base + Q].MustFollow = M;
  }

  void clear() {
    Base = 0;
    N = 0;
  }

  /// First live index whose tag is >= \p T (tags are strictly increasing
  /// in trace order).
  std::size_t lowerBoundTag(std::size_t T) const;

  /// Bytes reserved by the window's persistent storage (slots, invoke
  /// indices, availability rows).
  std::size_t memoryBytes() const {
    return Slots.capacity() * sizeof(CommitObligation) +
           Invokes.capacity() * sizeof(std::size_t) +
           Clients.capacity() * sizeof(ClientId) +
           Metas.capacity() * sizeof(std::uint32_t) +
           AvailStore.capacity() * sizeof(std::int32_t);
  }

  /// Publishes the Available pointers (re-laying the rows out first if
  /// the alphabet outgrew the stride) and returns the live slot range —
  /// the engine-ready CommitObligation array for a ChainProblemView.
  const CommitObligation *finalize(InputId AlphabetSize);

private:
  /// Ensures Stride >= AlphabetSize (power of two, min 64), re-laying
  /// live rows out and compacting to the front when it grows.
  void ensureStride(std::size_t AlphabetSize);

  std::vector<CommitObligation> Slots;
  std::vector<std::size_t> Invokes; ///< Parallel: invocation trace index.
  std::vector<ClientId> Clients;    ///< Parallel: invoking client.
  std::vector<std::uint32_t> Metas; ///< Parallel: response Action::Meta.
  std::vector<std::int32_t> AvailStore; ///< Row-major, Stride per row.
  std::size_t Stride = 0;
  std::size_t Base = 0; ///< First live row.
  std::size_t N = 0;    ///< Live rows.
};

/// Streaming, resumable plain-linearizability checking (Definition 5) of
/// one growing trace against one ADT.
class IncrementalLinSession {
public:
  explicit IncrementalLinSession(const Adt &Type,
                                 const IncrementalOptions &Opts = {});

  const Adt &adt() const { return Type; }

  /// Validates and ingests one event. A rejected event (ill-formed at this
  /// position, or not an input of the ADT) leaves the view unchanged and
  /// dooms the session: the trace the stream describes is not
  /// linearizable, so every later verdict is No with this reason, exactly
  /// as the batch checker would answer on the full stream.
  WellFormedness append(const Action &A);

  /// The verdict for the trace ingested so far. Identical conclusive
  /// answers to checkLinearizable(trace(), adt()); NodesExplored counts
  /// only the nodes this call spent (0 for the O(1) absorption paths).
  LinCheckResult verdict(const LinCheckOptions &Opts = {});

  /// The materialized view of everything ingested (empty when
  /// IncrementalOptions::RetainTrace is off; size() still counts).
  const Trace &trace() const { return Builder.trace(); }
  std::size_t size() const { return Builder.size(); }

  /// True once an event was rejected: the stream describes a trace that is
  /// not linearizable (ill-formed or not over the ADT's inputs), the view
  /// is frozen, and every verdict is No. Cleared by reset(); a rewind
  /// restores the mark-time value.
  bool doomed() const { return Doomed; }

  /// Starts a new, unrelated trace: clears the view, obligations, cached
  /// result, and mark; moves the lineage salt on (old memo entries are
  /// salted out); keeps the warm interner, arena blocks, and table.
  void reset();

  /// Declares the current view a shared prefix: snapshots the ingest state
  /// and seals this lineage's memo entries — they stay probe-able (via the
  /// engine's second salt) for every trace extending the prefix. Call
  /// after a verdict at the prefix to prime the seal and the shared
  /// success frontier. A budget-polluted lineage is snapshotted but not
  /// sealed. Replaces any previous mark. No-op on a doomed session: the
  /// rejected event belongs to the stream but not to the view, so the
  /// view is not a prefix siblings could share.
  void markPrefix();

  bool hasMark() const { return Mark.has_value(); }
  std::size_t markLength() const { return Mark ? Mark->Len : 0; }

  /// Rewinds to the marked prefix (view, obligations, cached result,
  /// success frontier, retained replay state) under a fresh lineage salt;
  /// the sealed prefix entries remain visible. The mark stays set for
  /// further rewinds.
  void rewindToMark();

  const SessionStats &stats() const { return Stats; }

  /// The session's scratch arena (exposed for the allocation-audit tests:
  /// a steady-state run must leave highWaterBytes()/reservedBytes() flat —
  /// every event reuses the warmed blocks, none grows them).
  const Arena &scratchArena() const { return Scratch; }

  /// The session's failed-subtree memo (exposed for the allocation-audit
  /// tests: its slot array doubles as inserts accumulate, up to
  /// IncrementalOptions::TranspositionCapacity).
  const TranspositionTable &memo() const { return Memo; }

  /// Estimated bytes this session holds across its long-lived structures
  /// (memo table, scratch arena, interner, live window, dense per-client
  /// tables, retained chains). The dominant terms of a shard's footprint
  /// in the multi-object monitoring service — an accounting estimate
  /// (FrontierState ADT states and string reasons are excluded), not an
  /// allocator audit; the AllocGauge machinery covers exactness.
  std::size_t memoryFootprintBytes() const;

  /// The engine-retained replay state at the success frontier (exposed for
  /// the retained-replay property tests and diagnostics). When Valid, it
  /// is the state reached by replaying frontierHistory() from scratch.
  const FrontierState &frontierState() const { return Frontier; }

  /// Materialized inputs of the retained success-frontier master — retired
  /// prefix ++ live chain (the history frontierState() corresponds to;
  /// meaningful when frontierState().Valid). With RetainRetiredWitness off
  /// the retired region is unavailable and only the live chain is returned.
  History frontierHistory() const;

  /// Number of obligations folded into the retired prefix so far.
  std::size_t retiredObligations() const { return WindowBase; }

  /// Current live obligation window size (completed-but-unretired
  /// operations); bounded by 64.
  std::size_t liveWindow() const { return Obligations.size(); }

  /// True while the live window exceeds the engine's exact-search bound
  /// (an *overflow excursion*: a straggling operation overlapped more than
  /// 64 completions). Verdicts during an excursion are the structural
  /// Unknown (WindowOverflowReason), surfaced without a search while the
  /// straggler pins the cut; once it closes, verdict() drains the backlog
  /// with prefix sub-searches and definitive verdicts resume. A session
  /// holding a cached No or WindowRetired Unknown keeps serving it instead.
  bool overflowed() const {
    return Obligations.size() > IncrementalWindowLimit;
  }

private:
  /// Everything a mark must be able to restore. Retirement mutates the
  /// window in place (prefix erase + mask remap), so the mark deep-copies
  /// the window and the retired-prefix state instead of relying on the
  /// old append-only truncation model.
  struct MarkState {
    std::size_t Len = 0;
    TraceBuilder::Snapshot Ingest;
    LiveWindow Window;
    std::vector<std::int32_t> Invoked;
    std::vector<std::size_t> OpenInvoke;
    bool HaveResult = false;
    Verdict Cached = Verdict::No;
    std::string CachedReason;
    std::size_t CheckedObligations = 0;
    std::vector<InputId> SuccessMaster;
    std::vector<std::pair<std::size_t, std::size_t>> SuccessCommits;
    FrontierState Frontier; ///< Deep snapshot of the retained replay state.
    // Retirement / window state. The retired id/row vectors are
    // append-only across folds, so the mark stores only their lengths and
    // a rewind truncates; the boundary state (advanced by folds) is the
    // one retirement artifact that needs a deep snapshot.
    std::size_t WindowBase = 0;
    std::size_t RetiredLen = 0;
    std::size_t RetiredCommitsLen = 0;
    FrontierState RetiredBoundary;
    bool OverflowNoted = false;
    /// Retirement disables the sealed-prefix probe (its entries' masks are
    /// renumbered away); a rewind restores the mark-time seal.
    std::uint64_t PrefixSalt = 0;
    bool HavePrefixSalt = false;
  };

  static constexpr std::size_t WindowLimit = IncrementalWindowLimit;

  /// Builds an owning engine problem over the window's first \p Count
  /// obligations (all of them by default) — the reference path the
  /// data-oriented view is differentially locked against, and the form the
  /// overflow drain's sub-problems still take. \p RecomputeMasks derives
  /// the MustFollow masks fresh over that sub-window — the drain needs it
  /// because the stored masks are deferred/stale during an excursion.
  ChainProblem buildProblem(std::size_t Count = SIZE_MAX,
                            bool RecomputeMasks = false);
  /// The data-oriented absorbed case: the cached Yes covers all but the
  /// single newest obligation, the retained frontier is adoptable, and the
  /// caller wants no witness — so the verdict is decided right here with
  /// the same checks the engine's one commit move would make (branchless
  /// word-mask/count scans over the SoA window, prefetched memo probes,
  /// one applyInput), never materializing a problem or entering the DFS.
  /// Returns false (leaving all state untouched beyond identical memo
  /// stat drift) when any precondition fails; the general path then runs.
  /// On true, \p Out plus every retained artifact (frontier, chain,
  /// stats) are bit-identical to what runSearch(FromFrontier=true) would
  /// have produced.
  bool tryFastResume(const LinCheckOptions &Limits, LinCheckResult &Out);
  /// The quiescent cut: the earliest currently-open invocation's trace
  /// index (trace end when none is open). Every response before it
  /// real-time-precedes everything still live or future.
  std::size_t openCut() const;
  /// Largest K such that \p Rows' first K entries commit exactly the first
  /// K window obligations, all with tags before \p E (see the
  /// implementation for why alignment on both axes is required).
  std::size_t alignedRetireLen(
      const std::vector<std::pair<std::size_t, std::size_t>> &Rows,
      std::size_t Limit, std::size_t E) const;
  /// Folds \p Rows' first K commits (their chain held in \p Chain, live
  /// ids) into the retired prefix: advances the boundary replay state,
  /// moves the ids and rows, erases the window prefix, and salts the memo
  /// lineage out (committed-mask bit positions shift).
  void foldRetired(const std::vector<InputId> &Chain,
                   const std::vector<std::pair<std::size_t, std::size_t>> &Rows,
                   std::size_t K);
  /// Folds the cached Yes chain's committed prefix up to the latest
  /// quiescent cut into the retired prefix and shrinks the live window
  /// (no-op when nothing is retirable). Called when a response finds the
  /// window full; search-free.
  void retireQuiescentPrefix();
  /// What an overflow drain concluded beyond its folds (a sub-No is
  /// cached by cacheNo()).
  struct DrainOutcome {
    /// The drain stopped on budget exhaustion (retryable, not structural).
    bool BudgetStopped = false;
    std::string BudgetReason; ///< Set when BudgetStopped.
  };
  /// Overflow recovery: retires via prefix sub-problem searches until the
  /// window fits, the cut pins, the budget runs out, or a sub-search
  /// concludes. All sub-searches share the verdict's budgets, measured
  /// from \p DrainStart.
  DrainOutcome drainOverflow(const LinCheckOptions &Limits,
                             std::uint64_t &SpentNodes,
                             std::chrono::steady_clock::time_point DrainStart);
  /// The graded fallback for a pinned excursion (the drain retired
  /// nothing and the window still exceeds the limit): searches the exact
  /// first-WindowLimit sub-problem and shapes \p R — BoundedYes when it
  /// linearizes within Opts.InterferenceBound, a conclusive No when it
  /// fails with nothing retired, the WindowRetired Unknown otherwise.
  /// The sub-Yes is cached keyed by (WindowBase, front tag), so
  /// re-serves while the same excursion persists are search-free.
  /// Returns false when the fallback does not apply (disabled, the tail
  /// exceeds the bound, or a structural sub-Unknown); the caller then
  /// reports the flat WindowOverflowReason.
  bool boundedFallback(const LinCheckOptions &Limits,
                       std::uint64_t &SpentNodes,
                       std::chrono::steady_clock::time_point DrainStart,
                       LinCheckResult &R);
  /// Prepends the materialized retired prefix (ids + commit rows) to a
  /// live-window witness.
  void completeWitness(LinWitness &W) const;
  LinCheckResult runSearch(const LinCheckOptions &Opts, bool FromFrontier);
  /// Caches a conclusive No of the live window (or of its first-64
  /// restriction) as the absorbing verdict: No with nothing retired, the
  /// WindowRetired Unknown behind a retired prefix.
  void cacheNo();
  /// Shapes \p R as the cached non-Yes verdict (counting a WindowRetired
  /// Unknown in the stats).
  void serveCached(LinCheckResult &R);
  LinCheckResult finish(LinCheckResult R);
  std::uint64_t nextLineageSalt();

  /// Dense ids of the last search's accepting master (runSearch -> verdict
  /// hand-off; avoids re-interning the witness per verdict).
  std::vector<InputId> LastMasterIds;

  /// Persistent scratch for the per-run seed-commit rows (warm capacity;
  /// refilled per search so the view path allocates nothing per verdict).
  std::vector<std::pair<std::size_t, std::size_t>> SeedCommitsScratch;

  const Adt &Type;
  IncrementalOptions Opts;
  /// The happens-before relation (Opts.Order): every mask this session
  /// derives and every retirement cut it takes goes through it.
  OrderRelation Order;
  InputInterner Interner;
  Arena Scratch;
  TranspositionTable Memo;
  SessionStats Stats;

  TraceBuilder Builder;
  /// The *live* obligation window, in response (trace) order; bounded by
  /// the engine's 64-obligation exact-search limit. MustFollow masks are
  /// window-relative (bit q = obligation q).
  LiveWindow Obligations;
  std::vector<std::int32_t> Invoked;     ///< Running invoked counts by id.
  std::vector<std::size_t> OpenInvoke;   ///< Per client: open invoke index.
  bool Doomed = false;
  std::string DoomReason;

  // Retirement state. RetiredMaster/RetiredCommits are the committed
  // prefix of the witness chain folded out of the live window at quiescent
  // cuts (dense ids; absolute commit lengths); RetiredBoundary is the
  // replay state exactly at RetiredMaster's end, advanced incrementally as
  // segments retire (each retired input is applied once, ever) so the
  // fallback full-root search adopts it instead of replaying the prefix.
  std::size_t WindowBase = 0; ///< Obligations retired so far.
  /// Length of the retired master chain. Tracked separately from
  /// RetiredMaster so the materialized ids are optional
  /// (Opts.RetainRetiredWitness): every structural use (SeedBase, cut
  /// alignment, frontier lengths) reads the counter, and RetiredMaster ==
  /// first RetiredMasterLen chain inputs only when retention is on.
  std::size_t RetiredMasterLen = 0;
  std::vector<InputId> RetiredMaster;
  std::vector<std::pair<std::size_t, std::size_t>> RetiredCommits;
  FrontierState RetiredBoundary;
  /// The current overflow excursion was counted in Stats.WindowOverflows.
  bool OverflowNoted = false;
  /// Cached pinned-excursion sub-Yes (boundedFallback): valid while the
  /// window base and the front obligation are unchanged — nothing folds
  /// during a pinned excursion, so re-serves are search-free. Cleared by
  /// folds, reset, and rewind.
  bool HaveBoundedYes = false;
  std::size_t BoundedWindowBase = 0;
  std::size_t BoundedFrontTag = 0;

  std::uint64_t SaltCounter = 0;
  std::uint64_t LineageSalt = 0;
  std::uint64_t PrefixSalt = 0;
  bool HavePrefixSalt = false;
  /// A budget-limited run recorded ancestors of unexplored subtrees as
  /// failed; the lineage is re-salted before the next search.
  bool Polluted = false;

  bool HaveResult = false;
  Verdict Cached = Verdict::No;
  std::string CachedReason;
  std::size_t CheckedObligations = 0; ///< Obligations the cache covers.
  std::vector<InputId> SuccessMaster;
  std::vector<std::pair<std::size_t, std::size_t>> SuccessCommits;
  /// Retained replay state at the success frontier: the AdtState (plus
  /// used counts and hashes) materialized at SuccessMaster's end. The
  /// engine adopts it on resumption (zero seed replay) and refreshes it at
  /// every accepting leaf; reset() invalidates it, mark/rewind snapshot
  /// and restore it.
  FrontierState Frontier;

  std::optional<MarkState> Mark;
};

/// Streaming (m, n)-speculative-linearizability checking (Definition 19)
/// of one growing phase trace. Obligations, init actions, and aborts are
/// accumulated per event; each verdict runs the relation's interpretation
/// family with per-interpretation lineage salts, retaining memo entries
/// across verdicts for as long as the deltas since the last verdict are
/// monotone (see the epoch rules in the implementation; the delta
/// taxonomy is slin/SlinChecker.h's classifySlinDelta /
/// slinDeltasNonMonotone).
///
/// Each interpretation additionally retains a *success frontier* — the
/// witness chain plus the engine's FrontierState replay cache — keyed by
/// interpretation hash. A verdict whose interpretation already has a
/// frontier resumes from the retained accepting leaf (zero seed replay,
/// O(new obligations) search in the steady state) and falls back to a
/// full root search on failure. Non-monotone deltas move the memo epoch
/// (salting retained entries out) but the frontiers are invalidated, not
/// discarded: a recurring interpretation hash implies identical init
/// contributions, the pre-cap availability snapshots of old responses are
/// append-stable, and every abort constraint is re-validated by the
/// accepting-leaf predicate under the *current* budgets — so the retained
/// chain remains a sound seed and only genuinely new work is searched.
class IncrementalSlinSession {
public:
  IncrementalSlinSession(const Adt &Type, const PhaseSignature &Sig,
                         const InitRelation &Rel,
                         const IncrementalOptions &Opts = {});

  /// Validates and ingests one event (Definitions 33–35 per event); a
  /// rejected event dooms the session as in IncrementalLinSession.
  WellFormedness append(const Action &A);

  /// The verdict for the trace ingested so far; identical conclusive
  /// answers to checkSlin(trace(), ...) over the same relation.
  SlinVerdict verdict(const SlinCheckOptions &Opts = {});

  const Trace &trace() const { return Builder.trace(); }
  std::size_t size() const { return Builder.size(); }

  /// Starts a new, unrelated trace (keeps warm storage; salts out memo and
  /// drops every retained frontier).
  void reset();

  const SessionStats &stats() const { return Stats; }

  /// Number of interpretations currently holding a retained frontier
  /// (diagnostics/tests).
  std::size_t retainedFrontiers() const { return Frontiers.size(); }

  /// Number of responses folded into the retired prefix so far.
  std::size_t retiredObligations() const { return WindowBase; }

  /// Current live response window size; bounded by 64.
  std::size_t liveWindow() const { return Obligations.size(); }

  /// True while the live window exceeds the engine's exact-search bound —
  /// an overflow excursion, transient exactly as in
  /// IncrementalLinSession::overflowed: counted once per excursion in
  /// SessionStats::WindowOverflows and cleared when verdict()'s drain
  /// brings the window back under the limit.
  bool overflowed() const {
    return Obligations.size() > IncrementalWindowLimit;
  }

  /// The session's scratch arena (exposed for the allocation-audit tests,
  /// as in IncrementalLinSession).
  const Arena &scratchArena() const { return Scratch; }

  /// Estimated bytes held across the session's long-lived structures,
  /// including every retained per-interpretation frontier (see
  /// IncrementalLinSession::memoryFootprintBytes for the contract).
  std::size_t memoryFootprintBytes() const;

private:
  struct AbortRec {
    std::size_t TraceIndex = 0;
    Input In;
    SwitchValue Sv;
    Multiset<Input> InvokedBefore; ///< As of the abort's index.
  };

  /// One interpretation's retained success frontier: the witness chain in
  /// dense ids plus the engine's replay cache, and — once the session
  /// retires — this interpretation's share of the retired prefix (each
  /// interpretation linearizes the retired region its own way, so retired
  /// ids, commit rows, and the boundary replay state are all per
  /// interpretation; commit lengths are absolute). Kept across epochs (see
  /// the class comment); dropped only by reset() or table pressure.
  struct InterpFrontier {
    std::vector<InputId> Master; ///< Live part of the chain (post-retired).
    std::vector<std::pair<std::size_t, std::size_t>> Commits; ///< (Tag, Len)
    FrontierState Replay;
    /// Length of this interpretation's retired chain and the number of
    /// responses folded into it. Tracked as counters (mirroring the lin
    /// session's RetiredMasterLen) so the materialized RetiredMaster /
    /// RetiredCommits below are optional (Opts.RetainRetiredWitness):
    /// every structural use — SeedBase, frontier-length checks, fold
    /// alignment — reads the counters.
    std::size_t RetiredLen = 0;
    std::size_t RetiredRows = 0;
    std::vector<InputId> RetiredMaster;
    std::vector<std::pair<std::size_t, std::size_t>> RetiredCommits;
    FrontierState RetiredBoundary;
    /// This interpretation's dense init-availability contribution (the
    /// pointwise-max union of every init action's {switch input} ∪
    /// interpretation history, Definition 26), snapshotted at the end of
    /// the last full run that captured this frontier and valid while
    /// InitUpTo still equals the session's init count. The fast path adds
    /// it on top of the shared window rows instead of re-sweeping the init
    /// actions; empty means no contribution (no init actions).
    std::vector<std::int32_t> InitDense;
    std::size_t InitUpTo = 0;
    /// LRU stamp: bumped on every resume and on admission; the eviction at
    /// the table bound removes the least-recently-resumed entry (and never
    /// one touched by the in-flight verdict), so cycling one-shot
    /// interpretations cannot thrash the hot steady-state frontier.
    std::uint64_t LastTouch = 0;
  };

  SlinCheckResult runUnder(const InitInterpretation &Finit,
                           const SlinCheckOptions &Opts, std::uint64_t Salt,
                           InterpFrontier *Frontier, bool FromFrontier,
                           Verdict *RawOutcome);
  std::uint64_t familyHash(const InterpretationFamily &F) const;
  /// Rebuilds the cached interpretation family (assignments, hashes,
  /// family hash) from the retained init actions when an append dirtied
  /// it; no-op — and allocation-free — while the family is append-stable
  /// (InitRelation::interpretationsStableUnderAppend), which is the
  /// steady state.
  void refreshFamily();
  /// The slin data-oriented absorbed case, mirroring the lin session's
  /// tryFastResume across the whole interpretation family: the cached Yes
  /// covers all but the single newest obligation, every family member
  /// holds an adoptable retained frontier with a fresh init overlay, and
  /// the caller wants no witness — so the verdict is decided here with
  /// the same checks the engine's one commit move would make per
  /// interpretation (word-mask/count scans over the shared SoA window
  /// plus the per-interpretation InitDense overlay, prefetched memo
  /// probes, one applyInput each), never materializing a problem or
  /// entering the DFS. Returns false — undoing any partially applied
  /// inputs, leaving all state untouched beyond identical memo stat
  /// drift — when any precondition fails for any member; the family loop
  /// then runs. On true, \p Out plus every retained artifact are
  /// bit-identical to what the per-interpretation engine resumes would
  /// have produced, except that CachedVerdict's witnesses go stale (they
  /// are rebuilt from the frontiers on demand; see
  /// refreshCachedWitnesses).
  bool tryFastResume(const SlinCheckOptions &SOpts, SlinVerdict &Out);
  /// Rebuilds CachedVerdict.Witnesses from the retained frontiers (each
  /// frontier's live chain is exactly the witness the engine would have
  /// materialized). Called lazily when an absorbed verdict needs the
  /// witnesses after fast-path verdicts let them go stale.
  void refreshCachedWitnesses();
  /// Folds every retained frontier's chain prefix up to the latest
  /// quiescent cut into its per-interpretation retired prefix and shrinks
  /// the shared response window; requires an abort-free stream and a
  /// covering frontier for every interpretation of the current family.
  void retireQuiescentPrefix();
  /// One interpretation's owning sub-problem over the window's first
  /// \p Cap obligations, with masks recomputed over that sub-window (the
  /// stored ones are deferred/stale during an excursion). Abort-free
  /// streams only. \p F carries the seeding: behind its retired prefix
  /// when it covers the session's retirement depth, from the init LCP
  /// otherwise. \p Boundary doubles as the engine's MasterIds request and
  /// receives the accepting-leaf replay state.
  ChainResult runCapped(const InitInterpretation &Finit, std::size_t Cap,
                        const ChainLimits &CL, std::uint64_t Salt,
                        const InterpFrontier *F, FrontierState &Boundary);
  /// What an overflow drain concluded beyond its folds (see
  /// IncrementalLinSession::DrainOutcome). ConclusiveNo is the slin
  /// addition: one interpretation's sub-problem concluded No with nothing
  /// retired, which is conclusive for the whole family (the ∀ fails).
  struct DrainOutcome {
    bool RetiredNo = false;
    bool ConclusiveNo = false;
    bool BudgetStopped = false;
    std::string BudgetReason; ///< Set when BudgetStopped.
  };
  /// Overflow recovery, ported from the lin session per interpretation:
  /// while the window exceeds the limit and the cut is not pinned, run
  /// one capped sub-search per family member, align their chains at a
  /// common fold prefix, and fold each member's share into its retired
  /// prefix. Requires an abort-free stream and a family no larger than
  /// the window limit; all sub-searches share the one verdict's budgets.
  DrainOutcome drainOverflow(const SlinCheckOptions &SOpts,
                             std::uint64_t &SpentNodes,
                             std::chrono::steady_clock::time_point DrainStart);
  /// The family-wide graded fallback for a pinned excursion (see
  /// IncrementalLinSession::boundedFallback): every member must linearize
  /// the exact first-64 sub-problem for the BoundedYes grade; one
  /// member's sub-No with nothing retired is a conclusive family No.
  bool boundedFallback(const SlinCheckOptions &SOpts,
                       std::uint64_t &SpentNodes,
                       std::chrono::steady_clock::time_point DrainStart,
                       SlinVerdict &R);
  /// Prepends each interpretation's materialized retired prefix to its
  /// live-window witness (witnesses are cached in windowed form so the
  /// steady state never copies the retired region).
  void completeWitnesses(
      std::vector<std::pair<InitInterpretation, SlinWitness>> &Ws) const;

  const Adt &Type;
  PhaseSignature Sig;
  const InitRelation &Rel;
  IncrementalOptions Opts;
  /// The happens-before relation (Opts.Order), as in IncrementalLinSession.
  OrderRelation Order;
  InputInterner Interner;
  Arena Scratch;
  TranspositionTable Memo;
  SessionStats Stats;

  TraceBuilder Builder;
  /// The *live* response window, shared by every interpretation (slot
  /// fields and pre-init availability snapshots are interpretation-
  /// independent); MustFollow masks are window-relative.
  LiveWindow Obligations;
  std::vector<AbortRec> Aborts;
  /// Init actions with their trace indices — everything the relation needs
  /// to rebuild the interpretation family without the materialized trace.
  std::vector<std::pair<std::size_t, Action>> InitActions;
  std::vector<std::size_t> OpenStart;
  Multiset<Input> Invoked; ///< All invoked inputs so far.
  std::vector<std::int32_t> InvokedDense; ///< Running invoked counts by id.
  /// Running max over every ingested action of max(In.A, Sv.Val) — the
  /// FreshBound fed to interpretationsFromInits.
  std::int64_t MaxSeenVal = 0;
  bool Doomed = false;
  std::string DoomReason;

  // Retirement state (see IncrementalLinSession). Retirement requires an
  // abort-free stream: Abort Order caps *every* commit's availability by
  // every abort's budget, so a frozen retired prefix could not be re-capped
  // by a later abort — an abort arriving after retirement forces the
  // WindowRetired Unknown for every non-doomed verdict from then on.
  std::size_t WindowBase = 0; ///< Responses retired so far.
  /// The current overflow excursion was counted in Stats.WindowOverflows.
  bool OverflowNoted = false;
  bool AbortAfterRetire = false;
  /// Cached pinned-excursion family-wide sub-Yes (boundedFallback): valid
  /// while the window base, the front obligation, and the interpretation
  /// family are unchanged. Cleared by folds and reset.
  bool HaveBoundedYes = false;
  std::size_t BoundedWindowBase = 0;
  std::size_t BoundedFrontTag = 0;
  std::uint64_t BoundedFamilyHash = 0;
  std::uint64_t TouchCounter = 0; ///< LRU clock for frontier eviction.

  /// Bumped whenever retained memo entries could be unsound for the
  /// current problem; folded into every per-interpretation salt.
  std::uint64_t Epoch = 0;
  std::uint64_t SessionSalt;

  // Delta classification since the last verdict.
  bool SawInvokeSinceVerdict = false;
  bool SawResponseSinceVerdict = false;
  bool SawInitSinceVerdict = false;
  std::size_t NewObligations = 0; ///< Responses since the last verdict.
  bool AnyVerdict = false;
  bool LastAbortValidityAtEnd = false;
  std::uint64_t LastFamilyHash = 0;

  bool HaveResult = false;
  SlinVerdict CachedVerdict;
  /// Fast-path verdicts advance the frontiers without re-materializing
  /// witnesses; set until refreshCachedWitnesses() rebuilds them.
  bool CachedWitnessesStale = false;

  // Cached interpretation family (refreshFamily). Valid while no append
  // dirtied it; hashes are parallel to CachedFamily.Assignments.
  InterpretationFamily CachedFamily;
  std::vector<std::uint64_t> CachedInterpHashes;
  std::uint64_t CachedFamilyHash = 0;
  bool HaveCachedFamily = false;
  bool FamilyDirty = false;

  // Persistent per-verdict scratch (warm capacity; refilled per run so the
  // data-oriented path allocates nothing per steady event).
  std::vector<InputId> SeedScratch;
  std::vector<std::pair<std::size_t, std::size_t>> SeedCommitsScratch;
  std::vector<const std::int32_t *> OverlayPtrs;
  std::vector<std::int32_t> RunningInitScratch;
  std::vector<std::int32_t> ContribScratch;
  std::vector<std::pair<InterpFrontier *, UndoToken>> FastUndoScratch;

  /// Per-interpretation success frontiers, keyed by interpretation hash.
  /// Only interpretations that captured a frontier are admitted, and at
  /// the size bound the least-recently-touched entry is recycled (node
  /// extraction, no rehash/reallocation) per admission — frontier loss
  /// costs re-search, never soundness.
  std::map<std::uint64_t, InterpFrontier> Frontiers;
};

} // namespace slin

#endif // SLIN_ENGINE_INCREMENTAL_H
