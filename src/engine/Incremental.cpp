//===- engine/Incremental.cpp ---------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Soundness notes for the retention rules implemented here.
//
// *Monotonicity of failure.* A transposition entry records "from this
// (committed set, used multiset, ADT state), the remaining obligations
// cannot all be committed". Extending the trace adds obligations whose
// availability snapshots cover strictly later indices and leaves every
// existing obligation's snapshot, predecessors, and output untouched. If
// the extended problem were completable from the same search state, then
// deleting the new obligations' commit appends from that completion yields
// a completion of the original problem from the same state: used counts
// only shrink, every kept filler was available at all then-uncommitted
// original obligations, and no original obligation ever must-follow a new
// one (the new response's invocation lies after every original response).
// Hence failure is preserved by extension and every retained entry stays a
// sound prune — the basis for both the lineage salt (one growing trace)
// and the sealed prefix salt (many traces over one prefix).
//
// *Absorption.* The same deletion argument gives: an extension of a
// non-linearizable trace is non-linearizable (No is final), and an
// appended invocation changes no obligation at all (the cached verdict
// stands as-is). For the slin session the argument holds per
// interpretation for response and abort appends (aborts only tighten
// budgets and leaf predicates) and for invocations under the strict abort
// reading; a new init action changes the interpretation family and the
// init LCP seed, and an invocation under the relaxed reading grows every
// abort budget — both are non-monotone, so the epoch moves and the
// affected entries are salted out.
//
// *Pollution.* A budget-exhausted run returns through ancestors whose
// other children were never explored, yet those ancestors insert memo
// entries on the way out. Such entries are sound within the aborted run
// (the whole run answers Unknown) but not for a later run under the same
// salt, so any budget-limited result marks the lineage polluted and the
// next search re-salts.
//
//===----------------------------------------------------------------------===//

#include "engine/Incremental.h"

#include "support/Sequences.h"

#include <algorithm>
#include <chrono>

using namespace slin;

namespace {

constexpr std::uint64_t LinSaltDomain = 0x1A2B3C4D5E6F7081ull;
constexpr std::uint64_t SlinSaltDomain = 0x51A9B8C7D6E5F403ull;

constexpr char NoLinearizationReason[] = "no linearization function exists";

std::uint64_t interpretationHash(const InitInterpretation &Finit) {
  std::uint64_t H = 0xF1417ull;
  for (const auto &[Index, Hist] : Finit) {
    H = hashCombine(H, Index);
    H = hashCombine(H, hashValue(Hist));
  }
  return H;
}

/// One verdict's budget, split between a resumed attempt and its
/// completeness fallback: given what the resumed run spent, either reports
/// exhaustion (the fallback must not run) or yields the remaining limits.
/// Shared by the lin and slin sessions so the soundness-critical
/// accounting cannot drift between them.
struct BudgetSplit {
  bool Exhausted = false;
  const char *Reason = nullptr; ///< Set when Exhausted.
  std::uint64_t RestNodes = 0;
  std::uint64_t RestMillis = 0; ///< 0 = unlimited.
};

BudgetSplit splitBudget(std::uint64_t SpentNodes,
                        std::chrono::steady_clock::time_point Start,
                        std::uint64_t NodeBudget,
                        std::uint64_t TimeBudgetMillis) {
  BudgetSplit S;
  std::uint64_t ElapsedMs = 0;
  if (TimeBudgetMillis)
    ElapsedMs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  if (SpentNodes >= NodeBudget ||
      (TimeBudgetMillis && ElapsedMs >= TimeBudgetMillis)) {
    S.Exhausted = true;
    S.Reason = SpentNodes >= NodeBudget ? "node budget exhausted"
                                        : "time budget exhausted";
    return S;
  }
  // The strict >= guards above keep both remainders >= 1, so a bounded
  // budget can never collapse to 0 ("unlimited").
  S.RestNodes = NodeBudget - SpentNodes;
  S.RestMillis = TimeBudgetMillis ? TimeBudgetMillis - ElapsedMs : 0;
  return S;
}

/// The shared fold core both sessions retire through: advances \p Boundary
/// (created fresh on first use) over the chain segment up to the K-th row's
/// absolute length and splices ids/rows into the retired storage. The
/// soundness-critical bookkeeping lives here exactly once.
/// \p RetiredLenSoFar is the retired chain length before this fold (the lin
/// session tracks it as a counter so the materialized ids can be optional);
/// \p RetainWitness controls whether the ids and rows are spliced into the
/// retired storage at all — the boundary replay state always advances, as
/// it is what keeps post-retirement searches sound.
void foldIntoRetired(
    const Adt &Type, const InputInterner &Interner, FrontierState &Boundary,
    std::vector<InputId> &RetiredMaster,
    std::vector<std::pair<std::size_t, std::size_t>> &RetiredCommits,
    const std::vector<InputId> &Chain,
    const std::vector<std::pair<std::size_t, std::size_t>> &Rows,
    std::size_t K, std::size_t RetiredLenSoFar, bool RetainWitness) {
  std::size_t L = Rows[K - 1].second; // Absolute chain length at the cut.
  std::size_t LiveTake = L - RetiredLenSoFar;
  if (!Boundary.Valid) {
    Boundary.State = Type.makeState();
    Boundary.Used.assign(Interner.size(), 0);
    Boundary.UsedHash = 0;
    Boundary.SeqHash = 0;
    Boundary.HasSeqHash = false;
    Boundary.Len = 0;
    Boundary.Valid = true;
  }
  // Each retired input is applied exactly once, ever: the boundary state
  // advances incrementally, keeping the whole scheme O(1) amortized per
  // event.
  advanceFrontierState(Boundary, Interner, Chain.data(), LiveTake);
  if (RetainWitness) {
    RetiredMaster.insert(RetiredMaster.end(), Chain.begin(),
                         Chain.begin() + LiveTake);
    RetiredCommits.insert(RetiredCommits.end(), Rows.begin(),
                          Rows.begin() + K);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// LiveWindow (shared by both sessions)
//===----------------------------------------------------------------------===//

void LiveWindow::ensureStride(
    std::size_t AlphabetSize) {
  if (Stride >= AlphabetSize)
    return;
  std::size_t NewStride = Stride ? Stride : 64;
  while (NewStride < AlphabetSize)
    NewStride *= 2;
  // Re-lay the live rows out at the wider stride, compacting to the front
  // (slots and invoke indices move with them to stay row-aligned). Rare:
  // the alphabet grows past a power of two at most O(log |I|) times, ever.
  std::vector<std::int32_t> NewStore(Slots.size() * NewStride, 0);
  for (std::size_t Q = 0; Q != N; ++Q)
    std::copy(AvailStore.begin() +
                  static_cast<std::ptrdiff_t>((Base + Q) * Stride),
              AvailStore.begin() +
                  static_cast<std::ptrdiff_t>((Base + Q + 1) * Stride),
              NewStore.begin() + static_cast<std::ptrdiff_t>(Q * NewStride));
  AvailStore = std::move(NewStore);
  if (Base != 0) {
    std::move(Slots.begin() + static_cast<std::ptrdiff_t>(Base),
              Slots.begin() + static_cast<std::ptrdiff_t>(Base + N),
              Slots.begin());
    std::move(Invokes.begin() + static_cast<std::ptrdiff_t>(Base),
              Invokes.begin() + static_cast<std::ptrdiff_t>(Base + N),
              Invokes.begin());
    std::move(Clients.begin() + static_cast<std::ptrdiff_t>(Base),
              Clients.begin() + static_cast<std::ptrdiff_t>(Base + N),
              Clients.begin());
    std::move(Metas.begin() + static_cast<std::ptrdiff_t>(Base),
              Metas.begin() + static_cast<std::ptrdiff_t>(Base + N),
              Metas.begin());
    Base = 0;
  }
  Stride = NewStride;
}

void LiveWindow::pushResponse(
    std::size_t Tag, InputId In, const Output &Out, std::size_t InvokeIdx,
    std::uint64_t MustFollow, ClientId Client, std::uint32_t Meta,
    const std::vector<std::int32_t> &Invoked) {
  ensureStride(Invoked.size());
  if (Base + N == Slots.size()) {
    if (Base != 0) {
      // Reuse the front vacated by retirement: a steady-state append after
      // a fold slides rows forward within existing storage — no heap
      // traffic on the event path. (Source index always exceeds the
      // destination, so the forward copies are overlap-safe.)
      std::move(Slots.begin() + static_cast<std::ptrdiff_t>(Base),
                Slots.begin() + static_cast<std::ptrdiff_t>(Base + N),
                Slots.begin());
      std::move(Invokes.begin() + static_cast<std::ptrdiff_t>(Base),
                Invokes.begin() + static_cast<std::ptrdiff_t>(Base + N),
                Invokes.begin());
      std::move(Clients.begin() + static_cast<std::ptrdiff_t>(Base),
                Clients.begin() + static_cast<std::ptrdiff_t>(Base + N),
                Clients.begin());
      std::move(Metas.begin() + static_cast<std::ptrdiff_t>(Base),
                Metas.begin() + static_cast<std::ptrdiff_t>(Base + N),
                Metas.begin());
      for (std::size_t Q = 0; Q != N; ++Q)
        std::copy(AvailStore.begin() +
                      static_cast<std::ptrdiff_t>((Base + Q) * Stride),
                  AvailStore.begin() +
                      static_cast<std::ptrdiff_t>((Base + Q + 1) * Stride),
                  AvailStore.begin() + static_cast<std::ptrdiff_t>(Q * Stride));
      Base = 0;
    } else {
      // Start small: a short-lived object (a consensus slot) never holds
      // more than a handful of live obligations, and doubling reaches any
      // deeper window in O(log) steps.
      std::size_t NewCap = std::max<std::size_t>(8, Slots.size() * 2);
      Slots.resize(NewCap);
      Invokes.resize(NewCap);
      Clients.resize(NewCap);
      Metas.resize(NewCap);
      AvailStore.resize(NewCap * Stride, 0);
    }
  }
  std::size_t Row = Base + N;
  CommitObligation &C = Slots[Row];
  C.Tag = Tag;
  C.In = In;
  C.Out = Out;
  C.MustFollow = MustFollow;
  C.Available = nullptr; // Published by finalize() before every run.
  Invokes[Row] = InvokeIdx;
  Clients[Row] = Client;
  Metas[Row] = Meta;
  // Zero-extending the row to the stride at write time realizes the old
  // lazy zero-extension contract: an input first interned after this
  // response cannot have been invoked before it.
  std::int32_t *Dst = AvailStore.data() + Row * Stride;
  std::copy(Invoked.begin(), Invoked.end(), Dst);
  std::fill(Dst + Invoked.size(), Dst + Stride, 0);
  ++N;
}

bool LiveWindow::creditInvoke(const OrderRelation &Order, ClientId Invoker,
                              InputId In) {
  if (N == 0)
    return false;
  // A first-seen input forces the same stride regrow a pushResponse would;
  // steady streams hit existing cells only.
  ensureStride(static_cast<std::size_t>(In) + 1);
  bool Any = false;
  for (std::size_t Q = 0; Q != N; ++Q) {
    if (!Order.creditsLaterInvoke(Clients[Base + Q], Metas[Base + Q],
                                  Invoker))
      continue;
    ++AvailStore[(Base + Q) * Stride + In];
    Any = true;
  }
  return Any;
}

std::size_t
LiveWindow::lowerBoundTag(std::size_t T) const {
  // Tags are strictly increasing in trace order.
  std::size_t Lo = 0, Hi = N;
  while (Lo != Hi) {
    std::size_t Mid = Lo + (Hi - Lo) / 2;
    if (Slots[Base + Mid].Tag < T)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

const CommitObligation *
LiveWindow::finalize(InputId AlphabetSize) {
  ensureStride(AlphabetSize);
  for (std::size_t Q = 0; Q != N; ++Q)
    Slots[Base + Q].Available = AvailStore.data() + (Base + Q) * Stride;
  return Slots.data() + Base;
}

//===----------------------------------------------------------------------===//
// IncrementalLinSession
//===----------------------------------------------------------------------===//

IncrementalLinSession::IncrementalLinSession(const Adt &Type,
                                             const IncrementalOptions &Opts)
    : Type(Type), Opts(Opts), Order(Opts.Order),
      Memo(Opts.TranspositionCapacity) {
  if (!Opts.RetainTrace)
    Builder.setRetainView(false);
  LineageSalt = nextLineageSalt();
}

std::uint64_t IncrementalLinSession::nextLineageSalt() {
  return hashCombine(LinSaltDomain, ++SaltCounter);
}

WellFormedness IncrementalLinSession::append(const Action &A) {
  if (Doomed)
    return WellFormedness::fail(DoomReason);
  if (!Type.validInput(A.In)) {
    Doomed = true;
    DoomReason = "invalid input for ADT";
    return WellFormedness::fail(DoomReason);
  }
  WellFormedness W = Builder.append(A);
  if (!W) {
    Doomed = true;
    DoomReason = "not well-formed: " + W.Reason;
    return W;
  }

  std::size_t I = Builder.size() - 1;
  if (A.Client >= OpenInvoke.size())
    OpenInvoke.resize(A.Client + 1, SIZE_MAX);
  if (isInvoke(A)) {
    InputId Id = Interner.intern(A.In);
    if (Id >= Invoked.size())
      Invoked.resize(Id + 1, 0);
    ++Invoked[Id];
    OpenInvoke[A.Client] = I;
    // Under Strict an appended invocation changes no obligation: every
    // availability snapshot covers indices before it, so the cached
    // verdict stands. A weaker relation may instead credit the new input
    // to live responses it leaves unordered past this invocation
    // (OrderRelation::creditsLaterInvoke): the problem only *relaxes*, so
    // a cached Yes stands, but a cached No or retired-prefix No — and every
    // retained memo failure — may have depended on the tighter rows and
    // must go.
    if (!Order.isStrict() && Obligations.creditInvoke(Order, A.Client, Id)) {
      if (HaveResult && Cached != Verdict::Yes)
        HaveResult = false;
      LineageSalt = nextLineageSalt();
      HavePrefixSalt = false;
    }
    return W;
  }
  // Response: the invoking operation closes (the open-invocation table is
  // what retirement derives its quiescent cut from, so it must be exact).
  std::size_t InvokeIdx = OpenInvoke[A.Client];
  OpenInvoke[A.Client] = SIZE_MAX;
  // One new obligation, derived in O(log window).
  InputId In = Interner.intern(A.In);
  if (Obligations.size() == WindowLimit)
    retireQuiescentPrefix(); // The cheap cached-chain fold, search-free.
  std::uint64_t MustFollow = 0;
  if (Obligations.size() < WindowLimit) {
    // Happens-before, window-relative bits: the relation derives the new
    // obligation's predecessors over the live window (one binary search
    // plus a shift under Strict — bit-identical to the old inline
    // derivation; a filtered prefix under weaker relations).
    MustFollow = Order.pushMask(Obligations, InvokeIdx, A.Client);
  }
  // else: the window is in an overflow excursion (a straggling operation
  // overlaps more completions than the engine's exact search can carry);
  // the mask cannot be represented and is rebuilt when drainOverflow()
  // brings the window back under the limit. Verdicts in between are the
  // structural Unknown, surfaced without a search.
  // The availability row snapshots Invoked: elems(inputs(t, I)),
  // Definition 9.
  Obligations.pushResponse(I, In, A.Out, InvokeIdx, MustFollow, A.Client,
                           A.Meta, Invoked);
  if (Obligations.size() > Stats.LiveWindowHighWater)
    Stats.LiveWindowHighWater = Obligations.size();
  if (Obligations.size() > WindowLimit && !OverflowNoted) {
    OverflowNoted = true; // One overflow excursion, counted once.
    ++Stats.WindowOverflows;
  }
  // A cached No or retired-prefix No stands (absorption); a cached Yes now
  // undercounts the obligations and verdict() will resume from the
  // retained frontier.
  return W;
}

std::size_t IncrementalLinSession::openCut() const {
  // The quiescent cut: every response before E — the earliest
  // currently-open invocation (trace end when fully quiesced) — precedes
  // every open and every future invocation, so real-time order forces
  // those commits before everything still live. No instant of zero
  // concurrency is required; a pipelined stream retires continuously.
  std::size_t E = Builder.size();
  for (std::size_t Idx : OpenInvoke)
    if (Idx < E)
      E = Idx;
  return E;
}

std::size_t IncrementalLinSession::alignedRetireLen(
    const std::vector<std::pair<std::size_t, std::size_t>> &Rows,
    std::size_t Limit, std::size_t E) const {
  // K: the largest chain prefix of the witness rows that commits *exactly*
  // the first K window obligations, all with responses before E. The chain
  // may commit concurrent operations out of response order, so only a
  // prefix aligned on both axes — commit-length order and response (tag)
  // order — can be folded: rows' tags are distinct window tags, so
  // rows[0..k) == window[0..k) iff their running max tag equals
  // window[k-1]'s.
  Limit = std::min(Limit, Rows.size());
  std::size_t K = 0;
  std::size_t MaxTag = 0;
  for (std::size_t Q = 1; Q <= Limit; ++Q) {
    MaxTag = std::max(MaxTag, Rows[Q - 1].first);
    if (MaxTag >= E)
      break; // The running max only grows; later prefixes cannot qualify.
    if (MaxTag == Obligations.tag(Q - 1) &&
        Rows[Q - 1].second >= RetiredMasterLen)
      K = Q;
  }
  return K;
}

void IncrementalLinSession::foldRetired(
    const std::vector<InputId> &Chain,
    const std::vector<std::pair<std::size_t, std::size_t>> &Rows,
    std::size_t K) {
  foldIntoRetired(Type, Interner, RetiredBoundary, RetiredMaster,
                  RetiredCommits, Chain, Rows, K, RetiredMasterLen,
                  Opts.RetainRetiredWitness);
  RetiredMasterLen = Rows[K - 1].second;
  Obligations.eraseFront(K);
  WindowBase += K;
  Stats.RetiredObligations += K;
  // Memo keys embed window-relative committed masks; the shift re-numbers
  // every bit, so all retained entries — including any sealed prefix —
  // must be salted out. Retirement is amortized-rare, so the lost reuse is
  // a bounded cost, not a steady-state one.
  LineageSalt = nextLineageSalt();
  HavePrefixSalt = false;
  Polluted = false;
  // The bounded-fallback cache keys on (WindowBase, front tag); a fold
  // changes both the base and the first-64 sub-problem.
  HaveBoundedYes = false;
}

void IncrementalLinSession::retireQuiescentPrefix() {
  // The search-free retirement path: fold the *cached Yes chain's*
  // committed prefix out of the live window. It needs a frontier covering
  // the obligations being retired; without resumption there is nothing
  // sound to pin.
  if (!Opts.Resume || !HaveResult || Cached != Verdict::Yes)
    return;
  // The relation's retirement gate: only a window prefix every slot of
  // which is ordered before all open and future operations may fold (for
  // Strict the gate is the whole window — the tag test in the cut suffices
  // — so this is a no-op there; a weak relation stops at the first slot it
  // cannot vouch for, e.g. an unflushed TSO response).
  std::size_t Limit = std::min(CheckedObligations, SuccessCommits.size());
  Limit = Order.retirablePrefix(Obligations, Limit);
  std::size_t K = alignedRetireLen(SuccessCommits, Limit, openCut());
  if (K == 0)
    return;
  std::size_t L = SuccessCommits[K - 1].second;
  if (L - RetiredMasterLen > SuccessMaster.size())
    return; // Defensive: a malformed row must never pin a prefix.
  std::size_t LiveTake = L - RetiredMasterLen;
  foldRetired(SuccessMaster, SuccessCommits, K);
  // The cached chain stays valid beyond the fold: trim its retired part
  // and shift the surviving masks to the shrunk window's bit positions
  // (the dropped low bits are enforced by the seed).
  SuccessMaster.erase(SuccessMaster.begin(), SuccessMaster.begin() + LiveTake);
  SuccessCommits.erase(SuccessCommits.begin(), SuccessCommits.begin() + K);
  CheckedObligations -= K;
  Obligations.shiftMasks(K);
}

IncrementalLinSession::DrainOutcome
IncrementalLinSession::drainOverflow(const LinCheckOptions &Limits,
                                     std::uint64_t &SpentNodes,
                                     std::chrono::steady_clock::time_point
                                         DrainStart) {
  // Overflow recovery: the window outgrew the engine's exact-search bound
  // (a straggling operation overlapped more completions than 64). Retire
  // by *searching* prefix sub-problems — the first WindowLimit obligations
  // form a valid restriction (deleting later obligations' commits from any
  // full witness leaves a witness for the prefix), so a sub-chain's
  // aligned prefix is a sound retired prefix and a sub-No is conclusive
  // for the whole problem. All sub-searches together stay within the one
  // verdict's configured budgets.
  DrainOutcome Out;
  bool FoldedAny = false;
  while (Obligations.size() > WindowLimit) {
    std::size_t E = openCut();
    if (Obligations.tag(0) >= E)
      break; // Pinned by an open straggler; O(clients) and no search.
    BudgetSplit Split = splitBudget(SpentNodes, DrainStart, Limits.NodeBudget,
                                    Limits.TimeBudgetMillis);
    if (Split.Exhausted) {
      Out.BudgetStopped = true;
      Out.BudgetReason = Split.Reason;
      Polluted = true;
      break;
    }
    Scratch.reset();
    // Same problem mapping as a regular verdict, capped at the engine's
    // window and with fresh masks (the stored ones are deferred/stale
    // during an excursion).
    ChainProblem P = buildProblem(WindowLimit, /*RecomputeMasks=*/true);
    P.SeedBase = RetiredMasterLen;
    if (P.SeedBase && Opts.RetainRetiredWitness)
      P.RetiredPrefix = &RetiredMaster;
    // Adopt a clone of the retired boundary (or run fresh when nothing is
    // retired yet); the scratch state doubles as the MasterIds request.
    FrontierState BoundaryScratch;
    if (WindowBase != 0)
      BoundaryScratch = RetiredBoundary.snapshot();
    P.Retained = &BoundaryScratch;

    ChainLimits CL{Split.RestNodes, Split.RestMillis};
    ChainSearch Engine(Interner, Memo, Scratch);
    ChainResult R = Engine.run(P, CL, LineageSalt);
    Stats.Search.accumulate(R.Stats);
    SpentNodes += R.Stats.Nodes;
    if (R.Outcome == Verdict::Unknown) {
      if (R.BudgetLimited) {
        Polluted = true;
        Out.BudgetStopped = true;
        Out.BudgetReason = std::move(R.Reason); // The engine's own wording.
      }
      break;
    }
    if (R.Outcome == Verdict::No) {
      // The restriction of any full witness would have satisfied this
      // sub-problem, so the sub-No stands for the whole stream.
      cacheNo();
      break;
    }
    std::size_t K = alignedRetireLen(
        R.Commits, Order.retirablePrefix(Obligations, WindowLimit), E);
    if (K == 0 ||
        R.Commits[K - 1].second - RetiredMasterLen > R.MasterIds.size())
      break;
    foldRetired(R.MasterIds, R.Commits, K);
    FoldedAny = true;
  }
  if (FoldedAny) {
    Order.rebuildMasks(Obligations);
    // The old cached chain and frontier predate the drain's folds; they no
    // longer extend the retired base. (A cached No or retired-prefix No
    // survives — it is absorbing regardless of windowing.)
    if (Cached == Verdict::Yes)
      HaveResult = false;
    SuccessMaster.clear();
    SuccessCommits.clear();
    CheckedObligations = 0;
    Frontier.invalidate();
  }
  if (Obligations.size() <= WindowLimit)
    OverflowNoted = false; // The excursion ended; count the next one anew.
  return Out;
}

bool IncrementalLinSession::boundedFallback(
    const LinCheckOptions &Limits, std::uint64_t &SpentNodes,
    std::chrono::steady_clock::time_point DrainStart, LinCheckResult &R) {
  // Pinned excursion: the cut cannot retire anything, but the first
  // WindowLimit obligations still form an exact restriction of the full
  // problem — deleting the out-of-window completions' commits from any
  // full witness leaves a witness for the prefix (their responses lie
  // after every in-window response, so nothing in-window must-follow
  // them, and availability snapshots are functions of the prefix alone).
  // Searching that restriction grades the structural Unknown: a sub-Yes
  // with the out-of-window tail within Opts.InterferenceBound is
  // BoundedYes(tail); a sub-No with nothing retired is conclusive for the
  // whole stream; a sub-No behind a retired prefix is the WindowRetired
  // Unknown.
  const std::size_t Tail = Obligations.size() - WindowLimit;
  if (!Opts.Resume || Opts.InterferenceBound == 0 ||
      Tail > Opts.InterferenceBound)
    return false;
  const std::size_t FrontTag = Obligations.tag(0);
  if (HaveBoundedYes &&
      (BoundedWindowBase != WindowBase || BoundedFrontTag != FrontTag))
    HaveBoundedYes = false; // A different excursion; re-search.
  if (!HaveBoundedYes) {
    BudgetSplit Split = splitBudget(SpentNodes, DrainStart, Limits.NodeBudget,
                                    Limits.TimeBudgetMillis);
    if (Split.Exhausted) {
      Polluted = true;
      R.Reason = Split.Reason;
      R.BudgetLimited = true;
      return true;
    }
    Scratch.reset();
    // Same sub-problem mapping as the drain's: capped at the engine's
    // window, fresh masks, behind the retired prefix.
    ChainProblem P = buildProblem(WindowLimit, /*RecomputeMasks=*/true);
    P.SeedBase = RetiredMasterLen;
    if (P.SeedBase && Opts.RetainRetiredWitness)
      P.RetiredPrefix = &RetiredMaster;
    FrontierState BoundaryScratch;
    if (WindowBase != 0)
      BoundaryScratch = RetiredBoundary.snapshot();
    P.Retained = &BoundaryScratch;
    ChainLimits CL{Split.RestNodes, Split.RestMillis};
    ChainSearch Engine(Interner, Memo, Scratch);
    ChainResult Sub = Engine.run(P, CL, LineageSalt);
    Stats.Search.accumulate(Sub.Stats);
    SpentNodes += Sub.Stats.Nodes;
    if (Sub.Outcome == Verdict::Unknown) {
      if (!Sub.BudgetLimited)
        return false; // Structural sub-Unknown: the flat reason stands.
      Polluted = true;
      R.Reason = std::move(Sub.Reason);
      R.BudgetLimited = true;
      return true;
    }
    if (Sub.Outcome == Verdict::No) {
      // As for the drain: the restriction of any full witness would have
      // satisfied this sub-problem.
      cacheNo();
      serveCached(R);
      return true;
    }
    // Sub-Yes. The captured boundary leaf is discarded — the session
    // cache's contract (a cached Yes covers the whole window) does not
    // hold for a restriction — but the sub-verdict itself stays valid
    // while the excursion persists: nothing folds while pinned, and new
    // completions only append past the first 64.
    HaveBoundedYes = true;
    BoundedWindowBase = WindowBase;
    BoundedFrontTag = FrontTag;
  }
  R.Outcome = Verdict::Unknown;
  R.Grade = VerdictGrade::BoundedYes;
  R.Interference = Tail;
  R.Reason = WindowBoundedReason;
  ++Stats.BoundedYesVerdicts;
  return true;
}

void IncrementalLinSession::completeWitness(LinWitness &W) const {
  // With witness retention off the retired ids/rows were never stored;
  // the witness stays in its live-window (post-retirement) form.
  if (WindowBase == 0 || !Opts.RetainRetiredWitness)
    return;
  History Full;
  Full.reserve(RetiredMaster.size() + W.Master.size());
  for (InputId Id : RetiredMaster)
    Full.push_back(Interner.input(Id));
  Full.insert(Full.end(), W.Master.begin(), W.Master.end());
  W.Master = std::move(Full);
  W.Commits.insert(W.Commits.begin(), RetiredCommits.begin(),
                   RetiredCommits.end());
}

ChainProblem IncrementalLinSession::buildProblem(std::size_t Count,
                                                 bool RecomputeMasks) {
  Count = std::min(Count, Obligations.size());
  ChainProblem P;
  P.Type = &Type;
  P.AlphabetSize = Interner.size();
  P.ForceCloneStates = !Opts.UseUndoStates;
  // finalize() zero-extends the availability rows to the alphabet and
  // publishes the Available pointers; the owning problem copies the
  // engine-ready slots. (The copied pointers stay valid until the next
  // window mutation — every caller runs the engine before that.)
  const CommitObligation *Rows = Obligations.finalize(P.AlphabetSize);
  P.Commits.assign(Rows, Rows + Count);
  if (RecomputeMasks)
    for (std::size_t Q = 0; Q != Count; ++Q)
      P.Commits[Q].MustFollow = Order.maskOver(Obligations, Q);
  if (HavePrefixSalt) {
    P.ProbeSalt = PrefixSalt;
    P.HaveProbeSalt = true;
  }
  return P;
}

LinCheckResult IncrementalLinSession::runSearch(const LinCheckOptions &Opts,
                                                bool FromFrontier) {
  Scratch.reset();
  // The fallback full-root search under a retired prefix adopts a clone of
  // the retired-boundary replay state (the session frontier sits at the
  // chain's *end*, not the boundary); on Yes the advanced clone becomes
  // the new frontier, on failure it is discarded and the boundary state
  // survives untouched.
  FrontierState BoundaryScratch;
  bool CaptureFromBoundary = false;
  FrontierState *Retained = nullptr;
  // Hand the engine the retained replay state: a frontier-seeded run
  // adopts it (zero seed replay) and every accepting run — including the
  // completeness fallback — captures its leaf into it. Reference mode
  // retains nothing.
  if (!FromFrontier && this->Opts.Resume && WindowBase != 0) {
    BoundaryScratch = RetiredBoundary.snapshot();
    Retained = &BoundaryScratch;
    CaptureFromBoundary = true;
  } else {
    Retained = this->Opts.Resume ? &Frontier : nullptr;
  }
  SeedCommitsScratch.clear();
  if (FromFrontier)
    for (const auto &[Tag, Len] : SuccessCommits)
      // Obligations are in trace order, so Tag resolves by binary search.
      SeedCommitsScratch.push_back({Obligations.lowerBoundTag(Tag), Len});

  ChainLimits Limits{Opts.NodeBudget, Opts.TimeBudgetMillis};
  ChainSearch Engine(Interner, Memo, Scratch);
  ChainResult R;
  if (this->Opts.DataOriented) {
    // Hot path: hand the engine a view over the window's persistent SoA
    // storage — no per-verdict commit-row vector is materialized.
    ChainProblemView V;
    V.Type = &Type;
    V.AlphabetSize = Interner.size();
    V.Commits = Obligations.finalize(V.AlphabetSize);
    V.NumCommits = Obligations.size();
    V.ForceCloneStates = !this->Opts.UseUndoStates;
    // The retired prefix rides behind the engine's virtual seed: searches
    // cover the live window only, and neither the frontier resumption nor
    // the fallback ever re-materializes or re-replays the retired ids.
    V.SeedBase = RetiredMasterLen;
    if (V.SeedBase && this->Opts.RetainRetiredWitness) {
      V.RetiredPrefix = RetiredMaster.data();
      V.RetiredPrefixLen = RetiredMaster.size();
    }
    if (FromFrontier) {
      V.Seed = SuccessMaster.data();
      V.SeedLen = SuccessMaster.size();
      V.SeedCommits = SeedCommitsScratch.data();
      V.NumSeedCommits = SeedCommitsScratch.size();
    }
    V.Retained = Retained;
    if (HavePrefixSalt) {
      V.ProbeSalt = PrefixSalt;
      V.HaveProbeSalt = true;
    }
    R = Engine.run(V, Limits, LineageSalt);
  } else {
    ChainProblem P = buildProblem();
    P.SeedBase = RetiredMasterLen;
    if (P.SeedBase && this->Opts.RetainRetiredWitness)
      P.RetiredPrefix = &RetiredMaster;
    if (FromFrontier) {
      P.Seed = SuccessMaster;
      P.SeedCommits = SeedCommitsScratch;
    }
    P.Retained = Retained;
    R = Engine.run(P, Limits, LineageSalt);
  }
  Stats.Search.accumulate(R.Stats);
  if (R.Outcome == Verdict::Yes && CaptureFromBoundary)
    Frontier = std::move(BoundaryScratch);

  LinCheckResult Result;
  Result.Outcome = R.Outcome;
  Result.NodesExplored = R.Stats.Nodes;
  Result.BudgetLimited = R.BudgetLimited;
  if (R.Outcome == Verdict::Yes) {
    LastMasterIds = std::move(R.MasterIds);
    Result.Witness.Master = std::move(R.Master);
    Result.Witness.Commits = std::move(R.Commits);
  } else if (R.Outcome == Verdict::Unknown) {
    Result.Reason = std::move(R.Reason);
  } else {
    Result.Reason = NoLinearizationReason;
  }
  return Result;
}

bool IncrementalLinSession::tryFastResume(const LinCheckOptions &Limits,
                                          LinCheckResult &Out) {
  // The steady-state shape: a cached Yes, exactly one new obligation, and
  // a retained frontier the engine would adopt verbatim. The engine's
  // resumed run then degenerates to one node — adopt, probe the memo,
  // check the new obligation's deficit and endpoint, apply one input,
  // reach the all-committed leaf. This inlines that node over the window's
  // SoA storage, with bit-identical verdicts and stats bookkeeping, and
  // touches no heap. Any gate miss returns false with the session
  // untouched and the regular runSearch() path takes over.
  if (!Opts.DataOriented || !Opts.UseUndoStates || Limits.WantWitness)
    return false;
  const std::size_t N = Obligations.size();
  if (N == 0 || N > 64)
    return false;
  if (CheckedObligations + 1 != N || SuccessCommits.size() + 1 != N)
    return false;
  // NodeBudget 0 would exhaust at the first node; let the engine report it.
  if (Limits.NodeBudget < 1)
    return false;
  // Mirror the engine's frontier-adoption conditions exactly (a resumed
  // run that cannot adopt replays the seed — not this path's business).
  if (!Frontier.Valid || !Frontier.State || !Frontier.State->supportsUndo())
    return false;
  if (Frontier.Len != RetiredMasterLen + SuccessMaster.size() ||
      Frontier.Len == 0)
    return false;
  if (Frontier.Used.size() > Interner.size() ||
      Frontier.Used.size() > Obligations.stride())
    return false;

  // The uncommitted obligation is necessarily the newest: SuccessCommits
  // holds the previous window's tags in order, and the window grew by one.
  const std::size_t Q = N - 1;
  const std::uint64_t FullMask = N == 64 ? ~0ull : (1ull << N) - 1;
  const std::uint64_t Committed = FullMask & ~(1ull << Q);
  if (Obligations.mustFollow(Q) & ~Committed)
    return false; // Defensive; a prefix mask can never trip this.

  Scratch.reset();
  const std::uint64_t Digest = Frontier.State->digest();
  const std::uint64_t UsedHash = Frontier.UsedHash;
  auto KeyFor = [&](std::uint64_t S) {
    return hashCombine(hashCombine(hashCombine(S, Committed), Digest),
                       UsedHash);
  };
  const std::uint64_t Key = KeyFor(detail::mix64(LineageSalt));
  const std::uint64_t ProbeKey =
      HavePrefixSalt ? KeyFor(detail::mix64(PrefixSalt)) : 0;
  Memo.prefetch(Key);
  if (HavePrefixSalt)
    Memo.prefetch(ProbeKey);

  // Branchless window-relative deficit scan over the newest obligation's
  // availability row (the engine computes Deficit[Q] on adoption; every
  // already-committed obligation's deficit is moot). Used ids beyond the
  // frontier's dense range are zero and cannot contribute.
  const std::int32_t *Avail = Obligations.availRow(Q);
  const std::int32_t *Used = Frontier.Used.data();
  const std::size_t UsedLen = Frontier.Used.size();
  bool Over = false;
  for (std::size_t Id = 0; Id != UsedLen; ++Id)
    Over |= Used[Id] > Avail[Id];
  if (Over)
    return false;
  // Endpoint check: committing Q consumes one more of its input.
  const InputId In = Obligations.in(Q);
  const std::int32_t UsedIn = In < UsedLen ? Used[In] : 0;
  if (UsedIn + 1 > Avail[In])
    return false;
  // Memo probe, short-circuit order as in the engine. A hit means the
  // engine would fail this subtree and fall through to the full root
  // search — let it run the whole thing for identical accounting.
  if (Memo.contains(Key) || (HavePrefixSalt && Memo.contains(ProbeKey)))
    return false;
  UndoToken U;
  if (Frontier.State->applyInput(Interner.input(In), U, Scratch) !=
      Obligations.out(Q)) {
    Frontier.State->undoInput(U);
    return false;
  }

  // Committed. From here the run is a guaranteed Yes; advance the frontier
  // in place exactly as the engine's leaf capture would.
  const std::size_t A = Interner.size();
  if (Frontier.Used.size() < A)
    Frontier.Used.resize(A, 0); // Amortized: only when the alphabet grew.
  const std::int32_t C = Frontier.Used[In]++;
  if (C > 0)
    Frontier.UsedHash ^= detail::pairMix(In, C);
  Frontier.UsedHash ^= detail::pairMix(In, C + 1);
  Frontier.HasSeqHash = false;
  Frontier.SeqHash = 0;

  ChainStats S;
  S.Nodes = 1;
  S.CommitMoves = 1;
  S.LeafChecks = 1;
  S.SeedStepsSkipped = RetiredMasterLen + SuccessMaster.size();
  Stats.Search.accumulate(S);
  ++Stats.FrontierResumes;
  ++Stats.FastPathVerdicts;

  ++Frontier.Len;
  SuccessMaster.push_back(In);
  SuccessCommits.push_back({Obligations.tag(Q), Frontier.Len});
  CheckedObligations = N;
  Out.Outcome = Verdict::Yes;
  Out.NodesExplored = 1;
  return true;
}

LinCheckResult IncrementalLinSession::finish(LinCheckResult R) {
  Stats.record(R.Outcome);
  // Seal the grade: gradeFor(Outcome) everywhere except the bounded
  // fallback, which graded its Unknown itself.
  if (R.Grade != VerdictGrade::BoundedYes)
    R.Grade = gradeFor(R.Outcome);
  return R;
}

void IncrementalLinSession::cacheNo() {
  // A conclusive No of the live window, or of its exact first-64
  // restriction. With nothing retired it is the session's No. Behind a
  // retired prefix it only rules out completions of the pinned retired
  // chain — a different linearization of the retired region might have
  // worked — so it is the WindowRetired Unknown. (Doomed streams never
  // reach this point: ill-formedness is No regardless.) Either is final
  // under extension: a witness of an extension restricts to one of the
  // refuted problem (Strict extensions only add obligations), so both are
  // cached and absorbed; only a TsoHb invoke credit re-opens them.
  HaveResult = true;
  if (WindowBase == 0) {
    Cached = Verdict::No;
    CachedReason = NoLinearizationReason;
  } else {
    Cached = Verdict::Unknown;
    CachedReason = WindowRetiredReason;
  }
}

void IncrementalLinSession::serveCached(LinCheckResult &R) {
  R.Outcome = Cached;
  R.Reason = CachedReason;
  if (Cached == Verdict::Unknown)
    ++Stats.WindowRetiredUnknowns;
}

LinCheckResult IncrementalLinSession::verdict(const LinCheckOptions &Limits) {
  LinCheckResult R;
  if (Doomed) {
    R.Outcome = Verdict::No;
    R.Reason = DoomReason;
    return finish(std::move(R));
  }
  if (Opts.Resume && HaveResult && Cached != Verdict::Yes) {
    serveCached(R); // No, plain or behind the retired prefix, is final.
    return finish(std::move(R));
  }
  std::uint64_t DrainNodes = 0;
  LinCheckOptions Avail = Limits; // Budget left for the search phases.
  if (Obligations.size() > WindowLimit) {
    // Overflow excursion. Resuming sessions try to drain it (prefix
    // sub-searches retire what the cut allows — a no-op O(clients) check
    // while a straggler pins the cut); whatever the window still holds
    // past the limit is the structural Unknown, surfaced without a
    // search. The drain can also conclude a sub-No: the session No with
    // nothing retired, the WindowRetired Unknown behind a retired prefix,
    // cached either way and absorbed above on the next call. Drain work
    // and the searches below share the one verdict's configured budgets.
    auto DrainStart = std::chrono::steady_clock::now();
    DrainOutcome D;
    if (Opts.Resume)
      D = drainOverflow(Limits, DrainNodes, DrainStart);
    if (HaveResult && Cached != Verdict::Yes) {
      serveCached(R);
      R.NodesExplored = DrainNodes;
      return finish(std::move(R));
    }
    if (Obligations.size() > WindowLimit) {
      R.Outcome = Verdict::Unknown;
      if (D.BudgetStopped) {
        // A retryable exhaustion, not the structural state: with a larger
        // budget the drain can finish.
        R.Reason = D.BudgetReason;
        R.BudgetLimited = true;
      } else if (!boundedFallback(Limits, DrainNodes, DrainStart, R)) {
        // The graded fallback shaped R (BoundedYes, a conclusive No, the
        // WindowRetired Unknown, or a budget stop) — or did not apply,
        // leaving the flat structural Unknown.
        R.Reason = WindowOverflowReason;
      }
      R.NodesExplored = DrainNodes;
      return finish(std::move(R));
    }
    BudgetSplit Split = splitBudget(DrainNodes, DrainStart, Limits.NodeBudget,
                                    Limits.TimeBudgetMillis);
    if (Split.Exhausted) {
      Polluted = true;
      R.Outcome = Verdict::Unknown;
      R.Reason = Split.Reason;
      R.BudgetLimited = true;
      R.NodesExplored = DrainNodes;
      return finish(std::move(R));
    }
    Avail.NodeBudget = Split.RestNodes;
    Avail.TimeBudgetMillis = Split.RestMillis;
  }
  if (Opts.Resume && HaveResult && Cached == Verdict::Yes &&
      CheckedObligations == Obligations.size()) {
    // Nothing but invocations arrived since the Yes: same obligations,
    // same witness. With WantWitness off this path is O(1); materializing
    // the retained witness is the only per-event cost it ever pays.
    R.Outcome = Verdict::Yes;
    if (Limits.WantWitness) {
      R.Witness.Master.reserve(SuccessMaster.size());
      for (InputId Id : SuccessMaster)
        R.Witness.Master.push_back(Interner.input(Id));
      R.Witness.Commits = SuccessCommits;
      completeWitness(R.Witness);
    }
    return finish(std::move(R));
  }

  if (Polluted || !Opts.Resume) {
    LineageSalt = nextLineageSalt();
    Polluted = false;
  }

  std::uint64_t SpentNodes = DrainNodes;
  LinCheckOptions Rest = Avail;
  if (Opts.Resume && HaveResult && Cached == Verdict::Yes) {
    // Steady state: exactly one new obligation since the Yes. The inlined
    // resume below places it against the retained frontier directly —
    // bit-identical stats to the engine run it replaces — without
    // constructing a problem or touching the heap.
    if (tryFastResume(Avail, R))
      return finish(std::move(R));
    // Resume at the retained accepting leaf: only the new obligations
    // need placing. A conclusive No here only rules out that subtree, so
    // it falls through to the full root search (whose memo the subtree's
    // failures now seed). (A drain that folded cannot reach here — it
    // invalidated the cache — so Avail == Limits on this path.)
    auto Start = std::chrono::steady_clock::now();
    ++Stats.FrontierResumes;
    R = runSearch(Avail, /*FromFrontier=*/true);
    if (R.Outcome == Verdict::Yes) {
      SuccessCommits = R.Witness.Commits;
      SuccessMaster = std::move(LastMasterIds);
      Cached = Verdict::Yes;
      HaveResult = true;
      CheckedObligations = Obligations.size();
      if (Limits.WantWitness)
        completeWitness(R.Witness);
      else
        R.Witness = LinWitness();
      return finish(std::move(R));
    }
    if (R.Outcome == Verdict::Unknown) {
      Polluted = true;
      HaveResult = false;
      return finish(std::move(R));
    }
    SpentNodes = R.NodesExplored;
    // The completeness fallback gets only what the resumed run left, so
    // one verdict() never exceeds the configured budgets. The cached
    // frontier stays valid for a retry with a larger budget.
    BudgetSplit Split = splitBudget(SpentNodes, Start, Avail.NodeBudget,
                                    Avail.TimeBudgetMillis);
    if (Split.Exhausted) {
      LinCheckResult Exhausted;
      Exhausted.Outcome = Verdict::Unknown;
      Exhausted.BudgetLimited = true;
      Exhausted.Reason = Split.Reason;
      Exhausted.NodesExplored = SpentNodes;
      return finish(std::move(Exhausted));
    }
    Rest.NodeBudget = Split.RestNodes;
    Rest.TimeBudgetMillis = Split.RestMillis;
  }

  R = runSearch(Rest, /*FromFrontier=*/false);
  R.NodesExplored += SpentNodes;
  if (R.Outcome == Verdict::Yes) {
    HaveResult = true;
    Cached = Verdict::Yes;
    CheckedObligations = Obligations.size();
    SuccessCommits = R.Witness.Commits;
    SuccessMaster = std::move(LastMasterIds);
    if (Limits.WantWitness)
      completeWitness(R.Witness);
    else
      R.Witness = LinWitness();
  } else if (R.Outcome == Verdict::No) {
    cacheNo();
    serveCached(R);
  } else {
    HaveResult = false;
    if (R.BudgetLimited)
      Polluted = true;
  }
  return finish(std::move(R));
}

void IncrementalLinSession::reset() {
  Builder.clear();
  Obligations.clear();
  Invoked.assign(Interner.size(), 0);
  OpenInvoke.clear();
  Doomed = false;
  DoomReason.clear();
  HaveResult = false;
  CheckedObligations = 0;
  SuccessMaster.clear();
  SuccessCommits.clear();
  Frontier.invalidate();
  WindowBase = 0;
  RetiredMaster.clear();
  RetiredCommits.clear();
  RetiredMasterLen = 0;
  RetiredBoundary.invalidate();
  OverflowNoted = false;
  HaveBoundedYes = false;
  Mark.reset();
  HavePrefixSalt = false;
  LineageSalt = nextLineageSalt();
  Polluted = false;
  Scratch.reset();
}

std::size_t IncrementalLinSession::memoryFootprintBytes() const {
  auto Rows = [](const std::vector<std::pair<std::size_t, std::size_t>> &V) {
    return V.capacity() * sizeof(std::pair<std::size_t, std::size_t>);
  };
  return Memo.memoryBytes() + Scratch.reservedBytes() +
         Interner.memoryBytes() + Obligations.memoryBytes() +
         Invoked.capacity() * sizeof(std::int32_t) +
         OpenInvoke.capacity() * sizeof(std::size_t) +
         (SuccessMaster.capacity() + RetiredMaster.capacity() +
          LastMasterIds.capacity()) *
             sizeof(InputId) +
         Rows(SuccessCommits) + Rows(RetiredCommits) +
         Rows(SeedCommitsScratch) +
         (Frontier.Used.capacity() + RetiredBoundary.Used.capacity()) *
             sizeof(std::int32_t) +
         Builder.trace().capacity() * sizeof(Action);
}

History IncrementalLinSession::frontierHistory() const {
  History H;
  H.reserve(RetiredMaster.size() + SuccessMaster.size());
  for (InputId Id : RetiredMaster)
    H.push_back(Interner.input(Id));
  for (InputId Id : SuccessMaster)
    H.push_back(Interner.input(Id));
  return H;
}

void IncrementalLinSession::markPrefix() {
  // A doomed session cannot represent a shared prefix: the rejected event
  // is part of the stream but not of the view, so a mark here would doom
  // sibling traces that share only the *accepted* events. Keep any
  // earlier (clean) mark instead.
  if (Doomed)
    return;
  MarkState M;
  M.Len = Builder.size();
  M.Ingest = Builder.snapshot();
  M.Window = Obligations; // Deep copy: retirement mutates the window.
  M.Invoked = Invoked;
  M.OpenInvoke = OpenInvoke;
  M.HaveResult = HaveResult;
  M.Cached = Cached;
  M.CachedReason = CachedReason;
  M.CheckedObligations = CheckedObligations;
  M.SuccessMaster = SuccessMaster;
  M.SuccessCommits = SuccessCommits;
  M.Frontier = Frontier.snapshot();
  M.WindowBase = WindowBase;
  M.RetiredLen = RetiredMasterLen;
  M.RetiredCommitsLen = RetiredCommits.size();
  M.RetiredBoundary = RetiredBoundary.snapshot();
  M.OverflowNoted = OverflowNoted;
  Mark = std::move(M);
  // (The mark-time seal fields are filled in below, after sealing.)
  // Seal this lineage's entries: everything recorded so far failed
  // against (a prefix of) the marked prefix's obligations, hence prunes
  // soundly in every extension. A polluted lineage is not sealed.
  if (!Polluted)
    PrefixSalt = LineageSalt;
  HavePrefixSalt = HavePrefixSalt || !Polluted;
  Mark->PrefixSalt = PrefixSalt;
  Mark->HavePrefixSalt = HavePrefixSalt;
  LineageSalt = nextLineageSalt();
  Polluted = false;
}

void IncrementalLinSession::rewindToMark() {
  if (!Mark)
    return;
  const MarkState &M = *Mark;
  Builder.restore(M.Ingest);
  Obligations = M.Window; // Retirement mutates in place: restore the copy.
  Invoked = M.Invoked;
  OpenInvoke = M.OpenInvoke;
  Doomed = false; // Marks are only ever taken on clean sessions.
  DoomReason.clear();
  HaveResult = M.HaveResult;
  Cached = M.Cached;
  CachedReason = M.CachedReason;
  CheckedObligations = M.CheckedObligations;
  SuccessMaster = M.SuccessMaster;
  SuccessCommits = M.SuccessCommits;
  // Restore the mark-time replay state (a fresh deep copy per rewind: the
  // mark must survive any number of member checks advancing the frontier).
  Frontier = M.Frontier.snapshot();
  WindowBase = M.WindowBase;
  RetiredMasterLen = M.RetiredLen;
  if (Opts.RetainRetiredWitness) {
    RetiredMaster.resize(M.RetiredLen);    // Append-only across folds:
    RetiredCommits.resize(M.RetiredCommitsLen); // truncation suffices.
  }
  RetiredBoundary = M.RetiredBoundary.snapshot();
  OverflowNoted = M.OverflowNoted;
  // The bounded-fallback cache may describe a post-mark suffix whose
  // rewound sibling diverges at the same indices; dropping it only costs
  // one re-search.
  HaveBoundedYes = false;
  // Restore the mark-time seal: a retirement after the mark disabled the
  // probe (renumbered masks), but the rewound window matches it again.
  PrefixSalt = M.PrefixSalt;
  HavePrefixSalt = M.HavePrefixSalt;
  // Entries recorded after the mark describe another member's suffix
  // obligations; salt them out. The sealed prefix salt stays probe-able.
  LineageSalt = nextLineageSalt();
  Polluted = false;
}

//===----------------------------------------------------------------------===//
// IncrementalSlinSession
//===----------------------------------------------------------------------===//

IncrementalSlinSession::IncrementalSlinSession(const Adt &Type,
                                               const PhaseSignature &Sig,
                                               const InitRelation &Rel,
                                               const IncrementalOptions &Opts)
    : Type(Type), Sig(Sig), Rel(Rel), Opts(Opts), Order(Opts.Order),
      Memo(Opts.TranspositionCapacity), Builder(Sig),
      SessionSalt(SlinSaltDomain) {
  if (!Opts.RetainTrace)
    Builder.setRetainView(false);
}

WellFormedness IncrementalSlinSession::append(const Action &A) {
  if (Doomed)
    return WellFormedness::fail(DoomReason);
  WellFormedness W = Builder.append(A);
  if (!W) {
    Doomed = true;
    DoomReason = "not (m, n)-well-formed: " + W.Reason;
    return W;
  }

  std::size_t I = Builder.size() - 1;
  if (A.Client >= OpenStart.size())
    OpenStart.resize(A.Client + 1, SIZE_MAX);
  InputId InId = Interner.intern(A.In);
  // FreshBound for interpretationsFromInits tracks exactly what the
  // relations' trace walks compute: the max over every ingested action.
  const std::int64_t ActMax = std::max(A.In.A, A.Sv.Val);
  const bool FreshRaised = ActMax > MaxSeenVal;
  if (FreshRaised)
    MaxSeenVal = ActMax;
  SlinDeltaKind Kind = classifySlinDelta(A, Sig);
  switch (Kind) {
  case SlinDeltaKind::Invoke:
    OpenStart[A.Client] = I;
    Invoked.add(A.In);
    if (static_cast<std::size_t>(InId) >= InvokedDense.size())
      InvokedDense.resize(InId + 1, 0);
    ++InvokedDense[InId];
    // Relation-aware availability: live responses the relation leaves
    // unordered past this invocation gain the new input (see the lin
    // session). The relaxation strands cached No verdicts and the memo
    // era; retained Yes frontiers stay sound seeds.
    if (!Order.isStrict() &&
        Obligations.creditInvoke(Order, A.Client, InId)) {
      if (HaveResult && CachedVerdict.Outcome == Verdict::No)
        HaveResult = false;
      ++Epoch;
    }
    SawInvokeSinceVerdict = true;
    break;
  case SlinDeltaKind::Init:
    OpenStart[A.Client] = I;
    InitActions.push_back({I, A});
    SawInitSinceVerdict = true;
    FamilyDirty = true;
    break;
  case SlinDeltaKind::Obligation:
    if (isRespond(A)) {
      // The client's operation closes; the open table must be exact — it
      // is what retirement derives its quiescent cut from.
      std::size_t StartIdx = OpenStart[A.Client];
      OpenStart[A.Client] = SIZE_MAX;
      if (Obligations.size() == IncrementalWindowLimit)
        retireQuiescentPrefix();
      std::uint64_t MustFollow = 0;
      if (Obligations.size() < IncrementalWindowLimit) {
        // The relation derives the new response's predecessors over the
        // live window (a prefix mask under Strict — tags strictly
        // increase — filtered per slot under weaker relations).
        MustFollow = Order.pushMask(Obligations, StartIdx, A.Client);
      }
      // else: overflow excursion — the mask is not representable and is
      // rebuilt when verdict()'s drain brings the window back under the
      // limit (see the lin session). The response is tracked either way:
      // the drain's capped sub-searches and the graded fallback both need
      // the full backlog.
      Obligations.pushResponse(I, InId, A.Out, StartIdx, MustFollow, A.Client,
                               A.Meta, InvokedDense);
      ++NewObligations;
      if (Obligations.size() > Stats.LiveWindowHighWater)
        Stats.LiveWindowHighWater = Obligations.size();
      if (Obligations.size() > IncrementalWindowLimit && !OverflowNoted) {
        OverflowNoted = true; // One overflow excursion, counted once.
        ++Stats.WindowOverflows;
      }
    } else {
      // An abort only tightens the problem (budget caps, leaf predicate):
      // retained failures stay failures, but a cached Yes is stale. An
      // abort arriving *after* retirement is the one tightening a frozen
      // prefix cannot absorb — Abort Order caps every commit's
      // availability, including retired ones — so it forces the
      // WindowRetired Unknown from here on. The aborting client never
      // responds, so its open entry pins the cut, which also (correctly)
      // disables further retirement.
      Aborts.push_back({I, A.In, A.Sv, Invoked});
      if (WindowBase != 0)
        AbortAfterRetire = true;
    }
    SawResponseSinceVerdict = true;
    break;
  case SlinDeltaKind::Neutral:
    // Interior switches of a composed phase carry no obligation.
    break;
  }
  // A non-init append can still perturb the family by raising the
  // fresh-value bound (consensus' extended extremes consume values one
  // past the trace maximum); the relation says when that matters.
  if (Kind != SlinDeltaKind::Init && !FamilyDirty &&
      !Rel.interpretationsStableUnderAppend(!InitActions.empty(),
                                            FreshRaised))
    FamilyDirty = true;
  return W;
}

std::uint64_t
IncrementalSlinSession::familyHash(const InterpretationFamily &F) const {
  std::uint64_t H = hashCombine(0xFA111ull, F.Assignments.size());
  for (const InitInterpretation &Finit : F.Assignments)
    H = hashCombine(H, interpretationHash(Finit));
  return H;
}

void IncrementalSlinSession::refreshFamily() {
  if (HaveCachedFamily && !FamilyDirty)
    return;
  // Built from the retained init actions and the running fresh-value bound
  // — never from the materialized trace, so outcome-only monitors can run
  // with RetainTrace off. The contract on interpretationsFromInits makes
  // this identical to interpretations(trace(), Sig).
  CachedFamily = Rel.interpretationsFromInits(InitActions, MaxSeenVal);
  CachedInterpHashes.clear();
  CachedInterpHashes.reserve(CachedFamily.Assignments.size());
  for (const InitInterpretation &Finit : CachedFamily.Assignments)
    CachedInterpHashes.push_back(interpretationHash(Finit));
  CachedFamilyHash = familyHash(CachedFamily);
  HaveCachedFamily = true;
  FamilyDirty = false;
}

void IncrementalSlinSession::retireQuiescentPrefix() {
  // Slin retirement is abort-free only: Abort Order caps *every* commit's
  // availability by every abort's budget, so a frozen retired prefix could
  // not be re-capped by an abort (past or future). It also needs the cached
  // family-level Yes — every interpretation of the current family must hold
  // a frontier whose chain commits the prefix being retired, because each
  // one linearizes the retired region its own way.
  if (!Opts.Resume || !Aborts.empty() || !HaveResult ||
      CachedVerdict.Outcome != Verdict::Yes)
    return;
  // The quiescent cut: every response before E — the earliest
  // currently-open invocation or init — precedes every open and future
  // invocation (see the lin session; no zero-concurrency instant needed).
  std::size_t E = Builder.size();
  for (std::size_t Idx : OpenStart)
    if (Idx < E)
      E = Idx;
  // Cheap O(clients) early-out before the family walk below: a pinned cut
  // (straggler open since before the oldest window response) can never
  // fold anything, and it is exactly the case where this runs on every
  // append while the window stays full.
  if (Obligations.empty() || Obligations.tag(0) >= E)
    return;
  // The relation's retirement gate (see the lin session): only a window
  // prefix every slot of which is ordered before all open and future
  // operations may fold. Strict returns the whole window — no behavior
  // change.
  const std::size_t RetireLimit =
      Order.retirablePrefix(Obligations, Obligations.size());
  if (RetireLimit == 0)
    return;

  // Per-frontier foldable prefix lengths, as a bitmask over k-1 (window
  // <= 64): bit set iff the frontier's first k commit rows are exactly the
  // first k window responses, all with tags before E, at in-bounds chain
  // lengths. Each interpretation linearizes the retired region its own
  // way, but the *set* of retired responses must be uniform, so the
  // session folds at the largest k valid for the whole family.
  auto FoldMask = [&](const InterpFrontier &F) -> std::uint64_t {
    if (F.RetiredRows != WindowBase)
      return 0; // Stale retirement depth: cannot participate.
    std::uint64_t Mask = 0;
    std::size_t MaxTag = 0;
    std::size_t Limit =
        std::min({F.Commits.size(), Obligations.size(), RetireLimit});
    static_assert(IncrementalWindowLimit <= 64,
                  "fold masks are 64-bit over window positions");
    for (std::size_t Q = 1; Q <= Limit; ++Q) {
      MaxTag = std::max(MaxTag, F.Commits[Q - 1].first);
      if (MaxTag >= E)
        break;
      std::size_t L = F.Commits[Q - 1].second;
      if (L < F.RetiredLen || L - F.RetiredLen > F.Master.size())
        break;
      if (MaxTag == Obligations.tag(Q - 1))
        Mask |= 1ull << (Q - 1);
    }
    return Mask;
  };
  auto Fold = [&](InterpFrontier &F, std::size_t K) {
    std::size_t NewLen = F.Commits[K - 1].second;
    std::size_t LiveTake = NewLen - F.RetiredLen;
    foldIntoRetired(Type, Interner, F.RetiredBoundary, F.RetiredMaster,
                    F.RetiredCommits, F.Master, F.Commits, K, F.RetiredLen,
                    Opts.RetainRetiredWitness);
    F.RetiredLen = NewLen;
    F.RetiredRows += K;
    F.Master.erase(F.Master.begin(), F.Master.begin() + LiveTake);
    F.Commits.erase(F.Commits.begin(), F.Commits.begin() + K);
  };

  // Validate the whole family before mutating anything: a partial fold
  // would leave the shared window and the frontiers disagreeing. K is the
  // largest prefix every family member can fold. An empty family would
  // vacuously validate everything — refuse instead of retiring a window
  // nothing can ever re-validate.
  refreshFamily();
  if (CachedFamily.Assignments.empty())
    return;
  std::uint64_t Common = ~0ull;
  for (std::uint64_t IH : CachedInterpHashes) {
    auto It = Frontiers.find(IH);
    if (It == Frontiers.end())
      return;
    Common &= FoldMask(It->second);
    if (!Common)
      return;
  }
  std::size_t K = 64 - static_cast<std::size_t>(__builtin_clzll(Common));
  // Fold every capable retained frontier (family members and recurring
  // stale interpretations alike); entries that cannot fold at K would
  // reference dropped responses, so they are discarded — losing one costs
  // re-search for that interpretation, never soundness.
  for (auto It = Frontiers.begin(); It != Frontiers.end();) {
    if (FoldMask(It->second) & (1ull << (K - 1))) {
      Fold(It->second, K);
      ++It;
    } else {
      It = Frontiers.erase(It);
    }
  }
  Obligations.eraseFront(K);
  Obligations.shiftMasks(K);
  WindowBase += K;
  Stats.RetiredObligations += K;
  // Memo keys embed window-relative committed masks; the shift re-numbers
  // every bit, so every retained entry is salted out via the epoch.
  ++Epoch;
}

ChainResult IncrementalSlinSession::runCapped(const InitInterpretation &Finit,
                                              std::size_t Cap,
                                              const ChainLimits &CL,
                                              std::uint64_t Salt,
                                              const InterpFrontier *F,
                                              FrontierState &Boundary) {
  Scratch.reset();
  // Ghost inputs join the alphabet before any dense array is sized.
  for (const auto &[Index, H] : Finit) {
    (void)Index;
    for (const Input &In : H)
      Interner.intern(In);
  }
  std::vector<History> InitHistories;
  for (const auto &[Index, H] : Finit) {
    (void)Index;
    InitHistories.push_back(H);
  }
  History Lcp = longestCommonPrefix(InitHistories);
  bool HaveInits = !InitHistories.empty();

  const InputId A = Interner.size();
  const std::size_t NumOb = std::min(Cap, Obligations.size());
  const CommitObligation *Rows = Obligations.finalize(A);

  // Per-response availability: the shared window row plus the running
  // max-union of init contributions, exactly as in runUnder — minus the
  // abort machinery (capped runs serve abort-free streams only, so no
  // multiset mirror and no budget caps).
  OverlayPtrs.resize(NumOb);
  bool AnyInit = false;
  std::size_t NextInit = 0;
  auto AdvanceTo = [&](std::size_t Index) {
    while (NextInit != InitActions.size() &&
           InitActions[NextInit].first < Index) {
      const auto &[J, Act] = InitActions[NextInit];
      ++NextInit;
      if (!AnyInit) {
        RunningInitScratch.assign(A, 0);
        AnyInit = true;
      }
      ContribScratch.assign(A, 0);
      if (auto It = Finit.find(J); It != Finit.end())
        for (const Input &In : It->second) {
          InputId Id = Interner.intern(In);
          if (Id < A)
            ++ContribScratch[Id];
        }
      if (InputId Id = Interner.intern(Act.In);
          Id < A && ContribScratch[Id] < 1)
        ContribScratch[Id] = 1;
      for (InputId Id = 0; Id != A; ++Id)
        RunningInitScratch[Id] =
            std::max(RunningInitScratch[Id], ContribScratch[Id]);
    }
  };
  for (std::size_t R = 0; R != NumOb; ++R) {
    AdvanceTo(Obligations.tag(R));
    const std::int32_t *Row = Rows[R].Available;
    if (AnyInit) {
      std::int32_t *Copy = Scratch.allocArray<std::int32_t>(A);
      for (InputId Id = 0; Id != A; ++Id)
        Copy[Id] = Row[Id] + RunningInitScratch[Id];
      OverlayPtrs[R] = Copy;
    } else {
      OverlayPtrs[R] = Row;
    }
  }

  ChainProblem P;
  P.Type = &Type;
  P.AlphabetSize = A;
  P.ForceCloneStates = !Opts.UseUndoStates;
  P.Commits.reserve(NumOb);
  for (std::size_t Q = 0; Q != NumOb; ++Q) {
    CommitObligation Ob = Rows[Q];
    Ob.Available = OverlayPtrs[Q];
    // Fresh masks over the capped sub-window: the stored ones are
    // deferred/stale during an excursion.
    Ob.MustFollow = Order.maskOver(Obligations, Q);
    P.Commits.push_back(Ob);
  }
  if (F && WindowBase != 0 && F->RetiredRows == WindowBase) {
    // Behind this interpretation's retired prefix, adopting a clone of
    // its boundary replay state.
    P.SeedBase = F->RetiredLen;
    if (Opts.RetainRetiredWitness)
      P.RetiredPrefix = &F->RetiredMaster;
    Boundary = F->RetiredBoundary.snapshot();
  } else if (HaveInits) {
    for (const Input &In : Lcp)
      P.Seed.push_back(Interner.intern(In));
  }
  P.Retained = &Boundary; // Doubles as the MasterIds request.
  ChainSearch Engine(Interner, Memo, Scratch);
  ChainResult R = Engine.run(P, CL, Salt);
  Stats.Search.accumulate(R.Stats);
  return R;
}

IncrementalSlinSession::DrainOutcome IncrementalSlinSession::drainOverflow(
    const SlinCheckOptions &SOpts, std::uint64_t &SpentNodes,
    std::chrono::steady_clock::time_point DrainStart) {
  // The lin session's overflow recovery, ported per interpretation. The
  // first-WindowLimit restriction is exact for every family member
  // (deleting the out-of-window completions' commits from any full
  // witness leaves a witness for the restriction), so a capped sub-chain's
  // aligned prefix is a sound retired prefix for that member — but the
  // *set* of retired responses must stay uniform across the family, so
  // each round folds at the largest prefix every member's chain aligns
  // on (the common-fold alignment retireQuiescentPrefix uses). Abort-free
  // streams only (Abort Order would cap retired availabilities), and
  // families no larger than the window limit (the frontier table must
  // hold one fold target per member).
  DrainOutcome Out;
  if (!Aborts.empty())
    return Out;
  refreshFamily();
  const std::size_t Members = CachedFamily.Assignments.size();
  if (Members == 0 || Members > IncrementalWindowLimit)
    return Out;
  bool FoldedAny = false;
  std::vector<ChainResult> Round(Members);
  while (Obligations.size() > IncrementalWindowLimit) {
    std::size_t E = Builder.size();
    for (std::size_t Idx : OpenStart)
      if (Idx < E)
        E = Idx;
    if (Obligations.tag(0) >= E)
      break; // Pinned by an open straggler; O(clients) and no search.
    // The relation's retirement gate, as in retireQuiescentPrefix: a weak
    // relation may not fold past a slot it cannot vouch for.
    const std::size_t RetireLimit =
        Order.retirablePrefix(Obligations, IncrementalWindowLimit);
    if (RetireLimit == 0)
      break;
    bool Stop = false;
    std::uint64_t Common = ~0ull;
    for (std::size_t FI = 0; FI != Members; ++FI) {
      BudgetSplit Split =
          splitBudget(SpentNodes, DrainStart, SOpts.Search.NodeBudget,
                      SOpts.Search.TimeBudgetMillis);
      if (Split.Exhausted) {
        Out.BudgetStopped = true;
        Out.BudgetReason = Split.Reason;
        ++Epoch; // Polluted lineage: re-salt before the next search.
        Stop = true;
        break;
      }
      const std::uint64_t IH = CachedInterpHashes[FI];
      auto It = Frontiers.find(IH);
      InterpFrontier *F = It != Frontiers.end() ? &It->second : nullptr;
      if (WindowBase != 0 && (!F || F->RetiredRows != WindowBase)) {
        // No frontier at the session's retirement depth: this member
        // cannot validate the retired responses, so nothing further can
        // retire either.
        Out.RetiredNo = true;
        ++Stats.WindowRetiredUnknowns;
        Stop = true;
        break;
      }
      std::uint64_t Salt = hashCombine(hashCombine(SessionSalt, Epoch), IH);
      ChainLimits CL{Split.RestNodes, Split.RestMillis};
      FrontierState Boundary;
      ChainResult R = runCapped(CachedFamily.Assignments[FI],
                                IncrementalWindowLimit, CL, Salt, F, Boundary);
      SpentNodes += R.Stats.Nodes;
      if (R.Outcome == Verdict::Unknown) {
        if (R.BudgetLimited) {
          Out.BudgetStopped = true;
          Out.BudgetReason = std::move(R.Reason);
          ++Epoch;
        }
        Stop = true;
        break;
      }
      if (R.Outcome == Verdict::No) {
        // With no aborts the capped search decides the restriction, and
        // the restriction argument holds per interpretation: one
        // member's sub-No kills the ∀ over the whole family.
        if (WindowBase == 0) {
          Out.ConclusiveNo = true;
          HaveResult = true;
          CachedVerdict = SlinVerdict();
          CachedVerdict.Outcome = Verdict::No;
          CachedVerdict.Reason =
              "no speculative linearization function exists";
          CachedVerdict.Exact = CachedFamily.Exact && Rel.abortSearchExact();
          CachedWitnessesStale = false;
        } else {
          Out.RetiredNo = true;
          ++Stats.WindowRetiredUnknowns;
        }
        Stop = true;
        break;
      }
      // This member's fold mask: chain rows aligned on both axes (commit-
      // length order and response-tag order), at in-bounds chain lengths —
      // the same alignment alignedRetireLen/retireQuiescentPrefix use.
      std::uint64_t Mask = 0;
      std::size_t MaxTag = 0;
      const std::size_t RLen = F ? F->RetiredLen : 0;
      std::size_t Limit = std::min(R.Commits.size(), RetireLimit);
      for (std::size_t Q = 1; Q <= Limit; ++Q) {
        MaxTag = std::max(MaxTag, R.Commits[Q - 1].first);
        if (MaxTag >= E)
          break;
        std::size_t L = R.Commits[Q - 1].second;
        if (L < RLen || L - RLen > R.MasterIds.size())
          break;
        if (MaxTag == Obligations.tag(Q - 1))
          Mask |= 1ull << (Q - 1);
      }
      Common &= Mask;
      if (!Common) {
        // Every member so far linearized, but no common foldable prefix
        // exists this round; the flat structural Unknown stands.
        Stop = true;
        break;
      }
      Round[FI] = std::move(R);
    }
    if (Stop)
      break;
    std::size_t K = 64 - static_cast<std::size_t>(__builtin_clzll(Common));
    // Fold each member's share. Members without a frontier yet (nothing
    // was retired before, so their capped run started fresh) are admitted
    // now: the fold target must exist for the member to keep covering the
    // retired region. Duplicate hashes fold once.
    for (std::size_t FI = 0; FI != Members; ++FI) {
      const std::uint64_t IH = CachedInterpHashes[FI];
      auto It = Frontiers.find(IH);
      if (It == Frontiers.end())
        It = Frontiers.emplace(IH, InterpFrontier()).first;
      InterpFrontier &F = It->second;
      if (F.RetiredRows != WindowBase)
        continue; // Already folded under this hash.
      F.LastTouch = ++TouchCounter;
      const ChainResult &R = Round[FI];
      foldIntoRetired(Type, Interner, F.RetiredBoundary, F.RetiredMaster,
                      F.RetiredCommits, R.MasterIds, R.Commits, K,
                      F.RetiredLen, Opts.RetainRetiredWitness);
      F.RetiredLen = R.Commits[K - 1].second;
      F.RetiredRows += K;
      // The capped chain's remainder is not retained as a live frontier:
      // it covers the restriction, not the whole window. The next
      // verdict's full root search behind the boundary rebuilds it.
      F.Master.clear();
      F.Commits.clear();
      F.Replay.invalidate();
    }
    // Frontiers that fell behind the new retirement depth (non-family
    // entries) could never fold or resume again; discard them.
    for (auto It = Frontiers.begin(); It != Frontiers.end();) {
      if (It->second.RetiredRows == WindowBase + K)
        ++It;
      else
        It = Frontiers.erase(It);
    }
    Obligations.eraseFront(K);
    WindowBase += K;
    Stats.RetiredObligations += K;
    // Memo keys embed window-relative committed masks; the shift
    // re-numbers every bit, so every retained entry is salted out.
    ++Epoch;
    FoldedAny = true;
  }
  if (FoldedAny) {
    Order.rebuildMasks(Obligations);
    // The cached family Yes and the bounded-fallback cache predate the
    // folds. (A cached No survives — it is absorbing regardless.)
    if (HaveResult && CachedVerdict.Outcome == Verdict::Yes)
      HaveResult = false;
    HaveBoundedYes = false;
  }
  if (Obligations.size() <= IncrementalWindowLimit)
    OverflowNoted = false; // The excursion ended; count the next one anew.
  return Out;
}

bool IncrementalSlinSession::boundedFallback(
    const SlinCheckOptions &SOpts, std::uint64_t &SpentNodes,
    std::chrono::steady_clock::time_point DrainStart, SlinVerdict &R) {
  // The lin session's pinned-excursion graded fallback, family-wide: the
  // first-WindowLimit restriction is exact under every interpretation
  // (init actions only ever precede their phase's responses, and the
  // out-of-window completions' availability snapshots cover strictly
  // later indices), so BoundedYes requires every member to linearize it,
  // and a single member's sub-No with nothing retired is a conclusive
  // family No.
  const std::size_t Tail = Obligations.size() - IncrementalWindowLimit;
  if (!Opts.Resume || Opts.InterferenceBound == 0 ||
      Tail > Opts.InterferenceBound || !Aborts.empty())
    return false;
  refreshFamily();
  if (CachedFamily.Assignments.empty())
    return false;
  const std::size_t FrontTag = Obligations.tag(0);
  if (HaveBoundedYes &&
      (BoundedWindowBase != WindowBase || BoundedFrontTag != FrontTag ||
       BoundedFamilyHash != CachedFamilyHash))
    HaveBoundedYes = false; // A different excursion or family; re-search.
  if (!HaveBoundedYes) {
    for (std::size_t FI = 0; FI != CachedFamily.Assignments.size(); ++FI) {
      BudgetSplit Split =
          splitBudget(SpentNodes, DrainStart, SOpts.Search.NodeBudget,
                      SOpts.Search.TimeBudgetMillis);
      if (Split.Exhausted) {
        ++Epoch;
        R.Reason = Split.Reason;
        R.BudgetLimited = true;
        return true;
      }
      const std::uint64_t IH = CachedInterpHashes[FI];
      auto It = Frontiers.find(IH);
      const InterpFrontier *F = It != Frontiers.end() ? &It->second : nullptr;
      if (WindowBase != 0 && (!F || F->RetiredRows != WindowBase)) {
        ++Stats.WindowRetiredUnknowns;
        R.Reason = WindowRetiredReason;
        return true;
      }
      std::uint64_t Salt = hashCombine(hashCombine(SessionSalt, Epoch), IH);
      ChainLimits CL{Split.RestNodes, Split.RestMillis};
      FrontierState Boundary;
      ChainResult Sub = runCapped(CachedFamily.Assignments[FI],
                                  IncrementalWindowLimit, CL, Salt, F,
                                  Boundary);
      SpentNodes += Sub.Stats.Nodes;
      if (Sub.Outcome == Verdict::Unknown) {
        if (!Sub.BudgetLimited)
          return false; // Structural sub-Unknown: the flat reason stands.
        ++Epoch;
        R.Reason = std::move(Sub.Reason);
        R.BudgetLimited = true;
        return true;
      }
      if (Sub.Outcome == Verdict::No) {
        if (WindowBase == 0) {
          // Conclusive for the whole stream: one interpretation's
          // restriction admits no speculative linearization.
          HaveResult = true;
          CachedVerdict = SlinVerdict();
          CachedVerdict.Outcome = Verdict::No;
          CachedVerdict.Reason =
              "no speculative linearization function exists";
          CachedVerdict.Exact = CachedFamily.Exact && Rel.abortSearchExact();
          CachedWitnessesStale = false;
          R.Outcome = Verdict::No;
          R.Reason = CachedVerdict.Reason;
          R.Exact = CachedVerdict.Exact;
        } else {
          ++Stats.WindowRetiredUnknowns;
          R.Reason = WindowRetiredReason;
        }
        return true;
      }
      // Sub-Yes for this member; the captured boundary leaf is discarded
      // (a restriction's chain is not a whole-window frontier).
    }
    HaveBoundedYes = true;
    BoundedWindowBase = WindowBase;
    BoundedFrontTag = FrontTag;
    BoundedFamilyHash = CachedFamilyHash;
  }
  R.Outcome = Verdict::Unknown;
  R.Grade = VerdictGrade::BoundedYes;
  R.Interference = Tail;
  R.Reason = WindowBoundedReason;
  ++Stats.BoundedYesVerdicts;
  return true;
}

SlinCheckResult
IncrementalSlinSession::runUnder(const InitInterpretation &Finit,
                                 const SlinCheckOptions &SOpts,
                                 std::uint64_t Salt, InterpFrontier *Frontier,
                                 bool FromFrontier, Verdict *RawOutcome) {
  Scratch.reset();
  // Ghost inputs join the alphabet before any dense array is sized.
  for (const auto &[Index, H] : Finit) {
    (void)Index;
    for (const Input &In : H)
      Interner.intern(In);
  }

  std::vector<History> InitHistories;
  for (const auto &[Index, H] : Finit) {
    (void)Index;
    InitHistories.push_back(H);
  }
  History Lcp = longestCommonPrefix(InitHistories);
  bool HaveInits = !InitHistories.empty();

  const InputId A = Interner.size();
  const std::size_t NumOb = Obligations.size();
  const CommitObligation *Rows = Obligations.finalize(A);

  // One sweep in trace-index order maintains the running max-union of
  // init contributions as a dense row over the alphabet, giving each
  // response and abort its initiallyValidInputs in O(#inits · alphabet +
  // #responses) — instead of recomputing the whole-trace validInputs per
  // index. Each response's availability is the shared window row (its
  // invoked-counts snapshot) plus that running init row, so obligations no
  // init action precedes share the window row outright (no copy at all)
  // and the rest get an arena overlay copy. Aborts force copies for every
  // row — their budgets cap availability in place below — and keep a
  // multiset mirror of the running union alive for the budget bookkeeping
  // (findAbortHistory consumes multisets).
  std::vector<detail::PendingAbort> Budgeted;
  Budgeted.reserve(Aborts.size());
  OverlayPtrs.resize(NumOb);
  const bool MustCopyAll = !Aborts.empty();
  const bool NeedInitMultiset = !Aborts.empty();
  Multiset<Input> RunningInitM;
  bool AnyInit = false;
  bool AnyOverlay = false;
  std::size_t NextInit = 0;
  auto AdvanceTo = [&](std::size_t Index) {
    while (NextInit != InitActions.size() &&
           InitActions[NextInit].first < Index) {
      const auto &[J, Act] = InitActions[NextInit];
      ++NextInit;
      if (!AnyInit) {
        RunningInitScratch.assign(A, 0);
        AnyInit = true;
      }
      // max(elems(f_init(j)), {in_j}) folded pointwise into the running
      // row: Definition 25's max-union, densified. Every input here was
      // interned above (ghosts) or at append (trace inputs), so the
      // intern calls are lookups and the bound guards are defensive.
      ContribScratch.assign(A, 0);
      if (auto It = Finit.find(J); It != Finit.end())
        for (const Input &In : It->second) {
          InputId Id = Interner.intern(In);
          if (Id < A)
            ++ContribScratch[Id];
        }
      if (InputId Id = Interner.intern(Act.In);
          Id < A && ContribScratch[Id] < 1)
        ContribScratch[Id] = 1;
      for (InputId Id = 0; Id != A; ++Id)
        RunningInitScratch[Id] =
            std::max(RunningInitScratch[Id], ContribScratch[Id]);
      if (NeedInitMultiset) {
        Multiset<Input> Contribution;
        Contribution.add(Act.In);
        if (auto It = Finit.find(J); It != Finit.end())
          Contribution.unionMaxInPlace(Multiset<Input>::fromRange(It->second));
        RunningInitM.unionMaxInPlace(Contribution);
      }
    }
  };
  {
    std::size_t R = 0, Ab = 0;
    while (R != NumOb || Ab != Aborts.size()) {
      bool TakeResponse =
          Ab == Aborts.size() ||
          (R != NumOb && Obligations.tag(R) < Aborts[Ab].TraceIndex);
      if (TakeResponse) {
        AdvanceTo(Obligations.tag(R));
        const std::int32_t *Row = Rows[R].Available;
        if (AnyInit || MustCopyAll) {
          std::int32_t *Copy = Scratch.allocArray<std::int32_t>(A);
          if (AnyInit)
            for (InputId Id = 0; Id != A; ++Id)
              Copy[Id] = Row[Id] + RunningInitScratch[Id];
          else
            std::copy(Row, Row + A, Copy);
          OverlayPtrs[R] = Copy;
          AnyOverlay = true;
        } else {
          OverlayPtrs[R] = Row;
        }
        ++R;
      } else if (SOpts.AbortValidityAtEnd) {
        // Relaxed reading: budget measured at the trace's end; fill in
        // after the sweep.
        Budgeted.push_back({Aborts[Ab].TraceIndex, Aborts[Ab].In,
                            Aborts[Ab].Sv, Multiset<Input>()});
        ++Ab;
      } else {
        AdvanceTo(Aborts[Ab].TraceIndex);
        Budgeted.push_back({Aborts[Ab].TraceIndex, Aborts[Ab].In,
                            Aborts[Ab].Sv,
                            RunningInitM.unionSum(Aborts[Ab].InvokedBefore)});
        ++Ab;
      }
    }
    if (SOpts.AbortValidityAtEnd && !Budgeted.empty()) {
      AdvanceTo(Builder.size());
      Multiset<Input> AtEnd = RunningInitM.unionSum(Invoked);
      for (detail::PendingAbort &Pa : Budgeted)
        Pa.Budget = AtEnd;
    }
  }

  // Abort Order + Definition 28: cap every commit's availability by every
  // abort's budget — the same pointwise min capByAbortBudgets applies to
  // multisets, done dense (absent counts are zero on both sides, so the
  // two commute with densification). Mutating in place is sound: aborts
  // forced every row to be an arena copy above.
  for (const detail::PendingAbort &Pa : Budgeted) {
    std::int32_t *BudgetRow = Scratch.allocZeroed<std::int32_t>(A);
    for (const auto &[In, Count] : Pa.Budget.entries()) {
      InputId Id = Interner.intern(In);
      if (Id < A)
        BudgetRow[Id] = static_cast<std::int32_t>(Count);
    }
    for (std::size_t R = 0; R != NumOb; ++R) {
      std::int32_t *Row = const_cast<std::int32_t *>(OverlayPtrs[R]);
      for (InputId Id = 0; Id != A; ++Id)
        Row[Id] = std::min(Row[Id], BudgetRow[Id]);
    }
  }

  // When the session has retired, every run for this interpretation rides
  // behind the engine's virtual seed: the per-interpretation retired chain
  // is never re-materialized, and the WindowRetired Unknown is synthesized
  // whenever retired obligations could not be validated under this
  // interpretation (no covering frontier — the verdict loop pre-checks,
  // this is defense in depth for a soundness-critical mapping).
  auto WindowRetiredResult = [&] {
    ++Stats.WindowRetiredUnknowns;
    SlinCheckResult R;
    R.Outcome = Verdict::Unknown;
    R.Reason = WindowRetiredReason;
    if (RawOutcome)
      *RawOutcome = Verdict::Unknown;
    return R;
  };
  bool HaveRetired =
      Frontier && WindowBase != 0 && Frontier->RetiredRows == WindowBase;
  if (WindowBase != 0 && !HaveRetired)
    return WindowRetiredResult();
  FrontierState BoundaryScratch;
  bool CaptureFromBoundary = false;
  const InputId *SeedPtr = nullptr;
  std::size_t SeedLen = 0;
  std::size_t SeedBase = 0;
  FrontierState *Retained = nullptr;
  SeedScratch.clear();
  SeedCommitsScratch.clear();
  if (FromFrontier && Frontier) {
    // Resume from this interpretation's retained witness chain: the master
    // (which starts with the init LCP — same interpretation, same LCP —
    // inside the retired prefix once the session has retired) becomes the
    // seed and the retained commit rows are pre-committed. The engine
    // adopts the retained replay state, so the seed costs zero ADT work;
    // the accepting-leaf predicate re-validates every abort constraint
    // under the *current* budgets, which is what keeps this sound across
    // non-monotone deltas (see the class comment).
    SeedBase = Frontier->RetiredLen;
    SeedPtr = Frontier->Master.data();
    SeedLen = Frontier->Master.size();
    bool Mismatch = false;
    for (const auto &[Tag, Len] : Frontier->Commits) {
      // Window tags are strictly increasing in trace order, so Tag
      // resolves by binary search. A tag that fails to resolve would
      // silently pre-commit the wrong obligation, so it aborts the
      // resumption instead (cannot happen while the reset()-clears-
      // frontiers invariant holds; this is defense in depth for a
      // soundness-critical mapping).
      std::size_t Idx = Obligations.lowerBoundTag(Tag);
      if (Idx == NumOb || Obligations.tag(Idx) != Tag) {
        if (WindowBase != 0)
          return WindowRetiredResult();
        Mismatch = true;
        break;
      }
      SeedCommitsScratch.push_back({Idx, Len});
    }
    if (Mismatch) {
      SeedCommitsScratch.clear();
      if (HaveInits)
        for (const Input &In : Lcp)
          SeedScratch.push_back(Interner.intern(In));
      SeedPtr = SeedScratch.data();
      SeedLen = SeedScratch.size();
    }
    Retained = &Frontier->Replay;
  } else if (HaveRetired) {
    // Full root search over the live window behind the retired prefix: the
    // engine adopts a clone of the retired-boundary replay state (the
    // frontier's own Replay sits at the chain's end, not the boundary); on
    // Yes the advanced clone becomes the interpretation's new frontier
    // state, on failure it is discarded and the boundary survives.
    SeedBase = Frontier->RetiredLen;
    BoundaryScratch = Frontier->RetiredBoundary.snapshot();
    Retained = &BoundaryScratch;
    CaptureFromBoundary = true;
  } else {
    if (HaveInits)
      for (const Input &In : Lcp)
        SeedScratch.push_back(Interner.intern(In));
    SeedPtr = SeedScratch.data();
    SeedLen = SeedScratch.size();
    if (Frontier)
      Retained = &Frontier->Replay;
  }

  std::vector<std::pair<std::size_t, History>> FoundAborts;
  ChainLimits Limits{SOpts.Search.NodeBudget, SOpts.Search.TimeBudgetMillis};
  ChainSearch Engine(Interner, Memo, Scratch);
  ChainResult R;
  if (Opts.DataOriented && Budgeted.empty()) {
    // The data-oriented entry: a non-owning view over the shared SoA
    // window plus this interpretation's overlay rows — no per-verdict
    // materialization. Abort-free runs only: the empty-budget synthesis
    // leaf accepts every leaf and the engine counts LeafChecks before
    // consulting the predicate, so a null predicate is bit-identical;
    // budgeted runs take the owning path below.
    ChainProblemView V;
    V.Type = &Type;
    V.AlphabetSize = A;
    V.Commits = Rows;
    V.NumCommits = NumOb;
    if (AnyOverlay)
      V.AvailOverride = OverlayPtrs.data();
    V.Seed = SeedPtr;
    V.SeedLen = SeedLen;
    V.SeedBase = SeedBase;
    if (SeedBase && Opts.RetainRetiredWitness && Frontier) {
      V.RetiredPrefix = Frontier->RetiredMaster.data();
      V.RetiredPrefixLen = Frontier->RetiredMaster.size();
    }
    V.SeedCommits = SeedCommitsScratch.data();
    V.NumSeedCommits = SeedCommitsScratch.size();
    V.SequenceSensitive = false;
    V.ForceCloneStates = !Opts.UseUndoStates;
    V.Retained = Retained;
    R = Engine.run(V, Limits, Salt);
  } else {
    // Reference path (and every run with aborts): materialize the owning
    // ChainProblem from the same resolved pieces — the DataOriented
    // on/off differential checks the shared-window/overlay/view assembly
    // against this independent copy.
    ChainProblem Problem;
    Problem.Type = &Type;
    Problem.AlphabetSize = A;
    Problem.ForceCloneStates = !Opts.UseUndoStates;
    Problem.Commits.reserve(NumOb);
    for (std::size_t Q = 0; Q != NumOb; ++Q) {
      CommitObligation Ob = Rows[Q];
      Ob.Available = OverlayPtrs[Q];
      Problem.Commits.push_back(Ob);
    }
    Problem.Seed.assign(SeedPtr, SeedPtr + SeedLen);
    Problem.SeedBase = SeedBase;
    if (SeedBase && Opts.RetainRetiredWitness && Frontier)
      Problem.RetiredPrefix = &Frontier->RetiredMaster;
    Problem.SeedCommits.assign(SeedCommitsScratch.begin(),
                               SeedCommitsScratch.end());
    Problem.SequenceSensitive = !Budgeted.empty();
    Problem.AcceptLeaf =
        detail::makeAbortSynthesisLeaf(Rel, Budgeted, Lcp, FoundAborts);
    Problem.Retained = Retained;
    R = Engine.run(Problem, Limits, Salt);
  }
  Stats.Search.accumulate(R.Stats);
  if (RawOutcome)
    *RawOutcome = R.Outcome;
  if (R.Outcome == Verdict::Yes && Frontier) {
    // Retain the accepting chain as this interpretation's next frontier
    // (the engine already captured the replay state at the leaf — into the
    // boundary clone for the post-retirement full root search), plus the
    // dense init overlay the fast path re-applies without re-sweeping the
    // init actions.
    if (CaptureFromBoundary)
      Frontier->Replay = std::move(BoundaryScratch);
    Frontier->Master = std::move(R.MasterIds);
    Frontier->Commits = R.Commits;
    AdvanceTo(Builder.size());
    if (AnyInit)
      Frontier->InitDense.assign(RunningInitScratch.begin(),
                                 RunningInitScratch.end());
    else
      Frontier->InitDense.clear();
    Frontier->InitUpTo = InitActions.size();
  }
  return detail::shapeSlinResult(std::move(R), Rel, !Budgeted.empty(),
                                 std::move(FoundAborts));
}

SlinVerdict IncrementalSlinSession::verdict(const SlinCheckOptions &SOpts) {
  SlinVerdict Result;
  if (Doomed) {
    Result.Outcome = Verdict::No;
    Result.Reason = DoomReason;
    Result.Exact = true;
    Result.Grade = gradeFor(Result.Outcome);
    Stats.record(Result.Outcome);
    return Result;
  }
  std::uint64_t DrainNodes = 0;
  SlinCheckOptions Avail = SOpts;
  if (Obligations.size() > IncrementalWindowLimit) {
    // Overflow excursion: try to retire a common aligned prefix per
    // interpretation via capped prefix sub-searches (drainOverflow). If a
    // straggler pins the cut, fall back to the graded bounded-interference
    // check instead of a flat Unknown.
    auto DrainStart = std::chrono::steady_clock::now();
    DrainOutcome D;
    if (Opts.Resume && Aborts.empty())
      D = drainOverflow(SOpts, DrainNodes, DrainStart);
    if (D.ConclusiveNo ||
        (Opts.Resume && HaveResult && CachedVerdict.Outcome == Verdict::No)) {
      Result.Outcome = Verdict::No;
      Result.Reason = CachedVerdict.Reason;
      Result.Exact = CachedVerdict.Exact;
      Result.NodesExplored = DrainNodes;
      Result.Grade = gradeFor(Result.Outcome);
      Stats.record(Result.Outcome);
      return Result;
    }
    if (Obligations.size() > IncrementalWindowLimit) {
      Result.Outcome = Verdict::Unknown;
      if (D.BudgetStopped) {
        Result.Reason = std::move(D.BudgetReason);
        Result.BudgetLimited = true;
      } else if (D.RetiredNo) {
        Result.Reason = WindowRetiredReason;
      } else if (!boundedFallback(SOpts, DrainNodes, DrainStart, Result)) {
        // Abort-carrying streams skip both the drain and the bounded
        // fallback (abort budgets pin every slot); report the structured
        // abort-pinned tag instead of the flat overflow Unknown so
        // monitors can tell the two structural states apart.
        Result.Reason =
            Aborts.empty() ? WindowOverflowReason : WindowAbortPinnedReason;
      }
      Result.NodesExplored = DrainNodes;
      if (Result.Grade != VerdictGrade::BoundedYes)
        Result.Grade = gradeFor(Result.Outcome);
      Stats.record(Result.Outcome);
      return Result;
    }
    // Fully drained: the regular family verdict below runs on whatever
    // budget the drain left (one verdict never exceeds the configured
    // budgets).
    BudgetSplit Split =
        splitBudget(DrainNodes, DrainStart, SOpts.Search.NodeBudget,
                    SOpts.Search.TimeBudgetMillis);
    if (Split.Exhausted) {
      ++Epoch; // Polluted lineage: re-salt before the next search.
      Result.Outcome = Verdict::Unknown;
      Result.Reason = Split.Reason;
      Result.BudgetLimited = true;
      Result.NodesExplored = DrainNodes;
      Result.Grade = gradeFor(Result.Outcome);
      Stats.record(Result.Outcome);
      return Result;
    }
    Avail.Search.NodeBudget = Split.RestNodes;
    Avail.Search.TimeBudgetMillis = Split.RestMillis;
  }
  if (AbortAfterRetire) {
    // An abort after retirement caps every commit's availability,
    // including the frozen retired ones — nothing sound can be concluded
    // short of re-checking the retired region, which is gone.
    ++Stats.WindowRetiredUnknowns;
    Result.Outcome = Verdict::Unknown;
    Result.Reason = WindowRetiredReason;
    Result.Grade = gradeFor(Result.Outcome);
    Stats.record(Result.Outcome);
    return Result;
  }

  // The interpretation family is cached and rebuilt only when an append
  // dirtied it (a new init action, or a relation-specific instability such
  // as a raised fresh-value bound) — the steady state recomputes nothing
  // and allocates nothing.
  refreshFamily();
  const std::uint64_t FH = CachedFamilyHash;
  bool OptsChanged =
      AnyVerdict && SOpts.AbortValidityAtEnd != LastAbortValidityAtEnd;
  bool FamilyChanged = !AnyVerdict || FH != LastFamilyHash;
  // Non-monotone deltas orphan every retained *memo* entry: a changed
  // family (or reading) changes seeds and availabilities outright, and
  // under the relaxed reading a new invocation grows every abort budget —
  // prior "failures" may now complete. The retained frontiers are only
  // invalidated (their memo era is salted out), never discarded: keyed by
  // interpretation hash, their chains stay sound seeds (the leaf predicate
  // re-validates aborts under current budgets).
  bool NonMonotone = slinDeltasNonMonotone(
      SawInvokeSinceVerdict, FamilyChanged, OptsChanged, !Aborts.empty(),
      SOpts.AbortValidityAtEnd);
  if (NonMonotone && AnyVerdict)
    ++Epoch;

  if (!Opts.Resume)
    ++Epoch; // Reference mode: nothing is reused across verdicts.

  bool DeltaOnlyInvokes =
      !SawResponseSinceVerdict && !SawInitSinceVerdict;
  if (Opts.Resume && HaveResult && !NonMonotone) {
    if (CachedVerdict.Outcome == Verdict::No) {
      // Every monotone delta tightens the problem: No is final.
      Stats.record(Verdict::No);
      SlinVerdict R;
      R.Outcome = Verdict::No;
      R.Reason = CachedVerdict.Reason;
      R.Exact = CachedVerdict.Exact;
      R.Grade = gradeFor(R.Outcome);
      return R;
    }
    if (CachedVerdict.Outcome == Verdict::Yes && DeltaOnlyInvokes) {
      // Identical obligations under every interpretation (strict reading)
      // or loosened budgets only (relaxed): the witnesses stand. With
      // WantWitness off this absorption is O(1).
      Stats.record(Verdict::Yes);
      SlinVerdict R;
      R.Outcome = Verdict::Yes;
      R.Exact = CachedVerdict.Exact;
      R.Grade = gradeFor(R.Outcome);
      if (SOpts.WantWitness) {
        if (CachedWitnessesStale)
          refreshCachedWitnesses();
        R.Witnesses = CachedVerdict.Witnesses;
        completeWitnesses(R.Witnesses);
      }
      return R;
    }
  }

  // The steady-state case a monitor lives in — cached Yes plus exactly one
  // new witness-free obligation — is decided without materializing a
  // problem or entering the DFS: one speculative commit move per family
  // member over the shared window (see tryFastResume).
  if (tryFastResume(Avail, Result))
    return Result;

  Result.Exact = CachedFamily.Exact && Rel.abortSearchExact();
  Result.NodesExplored = DrainNodes; // The family loop accumulates on top.
  bool AnyBudgetLimited = false;
  bool Concluded = false;
  for (std::size_t FI = 0; FI != CachedFamily.Assignments.size(); ++FI) {
    const InitInterpretation &Finit = CachedFamily.Assignments[FI];
    std::uint64_t IH = CachedInterpHashes[FI];
    std::uint64_t Salt = hashCombine(hashCombine(SessionSalt, Epoch), IH);
    // Only interpretations that actually captured a frontier live in the
    // table (a stream of never-recurring interpretations — e.g. the
    // consensus relation's extended extremes over a growing trace — must
    // not flood it with dead entries and evict the hot steady-state
    // frontier). A miss runs against a scratch slot that is inserted only
    // if the run captures something.
    InterpFrontier FreshFrontier;
    InterpFrontier *F = nullptr;
    bool Fresh = false;
    if (Opts.Resume) {
      auto It = Frontiers.find(IH);
      if (It != Frontiers.end()) {
        F = &It->second;
        F->LastTouch = ++TouchCounter;
      } else {
        F = &FreshFrontier;
        Fresh = true;
      }
    }
    if (WindowBase != 0 && (!F || Fresh || F->RetiredRows != WindowBase)) {
      // An interpretation without a frontier at the session's retirement
      // depth cannot validate the retired obligations at all (they were
      // dropped from the window); nothing sound can be concluded for it.
      ++Stats.WindowRetiredUnknowns;
      Result.Outcome = Verdict::Unknown;
      Result.Reason = WindowRetiredReason;
      Result.Witnesses.clear();
      Concluded = true;
      break;
    }
    SlinCheckResult R;
    Verdict Raw = Verdict::Unknown;
    if (F && !F->Master.empty()) {
      // Resume at this interpretation's retained accepting leaf: only the
      // new obligations need placing. A conclusive No there only rules out
      // the resumed subtree, so it falls through to a full root search on
      // whatever budget the resumed attempt left (one verdict never
      // exceeds the configured budgets).
      ++Stats.FrontierResumes;
      auto Start = std::chrono::steady_clock::now();
      R = runUnder(Finit, Avail, Salt, F, /*FromFrontier=*/true, &Raw);
      if (Raw == Verdict::No) {
        BudgetSplit Split =
            splitBudget(R.NodesExplored, Start, Avail.Search.NodeBudget,
                        Avail.Search.TimeBudgetMillis);
        if (Split.Exhausted) {
          std::uint64_t Spent = R.NodesExplored;
          R = SlinCheckResult();
          R.Outcome = Verdict::Unknown;
          R.BudgetLimited = true;
          R.Reason = Split.Reason;
          R.NodesExplored = Spent;
        } else {
          std::uint64_t Spent = R.NodesExplored;
          SlinCheckOptions Rest = Avail;
          Rest.Search.NodeBudget = Split.RestNodes;
          Rest.Search.TimeBudgetMillis = Split.RestMillis;
          SlinCheckResult Full =
              runUnder(Finit, Rest, Salt, F, /*FromFrontier=*/false, nullptr);
          Full.NodesExplored += Spent;
          R = std::move(Full);
        }
      }
    } else {
      R = runUnder(Finit, Avail, Salt, F, /*FromFrontier=*/false, nullptr);
    }
    if (R.Outcome == Verdict::No && WindowBase != 0) {
      // The live-window search is complete over completions of this
      // interpretation's pinned retired chain only; a different
      // linearization of the retired region might have worked.
      ++Stats.WindowRetiredUnknowns;
      R.Outcome = Verdict::Unknown;
      R.Reason = WindowRetiredReason;
      R.BudgetLimited = false;
      R.Witness = SlinWitness();
    }
    if (Fresh && !FreshFrontier.Master.empty()) {
      // The run captured a frontier for a new interpretation: admit it. At
      // the size bound, evict the least-recently-resumed entry — never one
      // this verdict touched, and never the hash being admitted — so
      // cycling one-shot interpretations (e.g. the consensus relation's
      // extended extremes over a growing trace) cannot thrash the hot
      // steady-state frontier. Losing a frontier costs re-search, never
      // soundness.
      FreshFrontier.LastTouch = ++TouchCounter;
      if (Frontiers.size() >= 64) {
        auto Victim = Frontiers.end();
        for (auto It = Frontiers.begin(); It != Frontiers.end(); ++It) {
          if (It->first == IH)
            continue;
          if (Victim == Frontiers.end() ||
              It->second.LastTouch < Victim->second.LastTouch)
            Victim = It;
        }
        if (Victim != Frontiers.end()) {
          // Recycle the victim's node in place of erase+emplace: the map
          // node (and the frontier's vector capacities, which the move
          // assignment below hands over) are reused, keeping steady-state
          // admission churn off the allocator.
          auto Node = Frontiers.extract(Victim);
          Node.key() = IH;
          Node.mapped() = std::move(FreshFrontier);
          Frontiers.insert(std::move(Node));
        } else {
          Frontiers.emplace(IH, std::move(FreshFrontier));
        }
      } else {
        Frontiers.emplace(IH, std::move(FreshFrontier));
      }
    }
    Result.NodesExplored += R.NodesExplored;
    AnyBudgetLimited |= R.BudgetLimited;
    if (R.Outcome == Verdict::Yes) {
      // The family is cached across verdicts, so the interpretation is
      // copied (not moved) into the witness list.
      Result.Witnesses.push_back({Finit, std::move(R.Witness)});
      continue;
    }
    Result.Outcome = R.Outcome;
    Result.Reason = R.Reason;
    Result.BudgetLimited = R.BudgetLimited;
    Result.Witnesses.clear();
    Concluded = true;
    break;
  }
  if (!Concluded)
    Result.Outcome = Verdict::Yes;
  Result.Grade = gradeFor(Result.Outcome);
  Stats.record(Result.Outcome);

  // A budget-limited run polluted its interpretation's lineage; move the
  // epoch so the next verdict starts from clean salts.
  if (AnyBudgetLimited)
    ++Epoch;

  SawInvokeSinceVerdict = false;
  SawResponseSinceVerdict = false;
  SawInitSinceVerdict = false;
  NewObligations = 0;
  AnyVerdict = true;
  LastAbortValidityAtEnd = SOpts.AbortValidityAtEnd;
  LastFamilyHash = FH;
  if (Result.Outcome != Verdict::Unknown) {
    HaveResult = true;
    CachedVerdict = Result; // Witnesses cached in windowed (live-only) form.
    CachedWitnessesStale = false;
  } else {
    HaveResult = false;
  }
  if (!SOpts.WantWitness)
    Result.Witnesses.clear();
  else
    completeWitnesses(Result.Witnesses);
  return Result;
}

bool IncrementalSlinSession::tryFastResume(const SlinCheckOptions &SOpts,
                                           SlinVerdict &Out) {
  // The steady-state shape, family-wide: a cached Yes, exactly one new
  // witness-free abort-free obligation, and per-interpretation frontiers
  // the engine would adopt verbatim. Each interpretation's resumed run
  // would degenerate to one node — adopt, probe the memo, check the
  // newest obligation's deficit (the shared window row plus the
  // interpretation's dense init overlay) and endpoint, apply one input,
  // reach the all-committed leaf. This inlines that node per family
  // member over the shared SoA storage, with bit-identical verdicts and
  // stats bookkeeping, and touches no heap. Any gate miss for any member
  // undoes the already-applied inputs and returns false with the session
  // untouched (beyond memo prefetches); the family loop takes over.
  if (!Opts.DataOriented || !Opts.UseUndoStates || !Opts.Resume)
    return false;
  if (SOpts.WantWitness || SOpts.Search.NodeBudget < 1)
    return false;
  if (!Aborts.empty())
    return false;
  if (!HaveResult || CachedVerdict.Outcome != Verdict::Yes)
    return false;
  if (NewObligations != 1 || SawInitSinceVerdict)
    return false;
  const std::size_t N = Obligations.size();
  if (N == 0 || N > 64)
    return false;
  if (CachedFamily.Assignments.empty())
    return false; // Defensive; a cached verdict implies a built family.

  // The uncommitted obligation is necessarily the newest: every frontier
  // holds the previous window's commits in order, and the window grew by
  // one.
  const std::size_t Q = N - 1;
  const std::uint64_t FullMask = N == 64 ? ~0ull : (1ull << N) - 1;
  const std::uint64_t Committed = FullMask & ~(1ull << Q);
  if (Obligations.mustFollow(Q) & ~Committed)
    return false; // Defensive; a prefix mask can never trip this.

  Scratch.reset();
  const InputId In = Obligations.in(Q);
  const InputId A = Interner.size();
  const std::int32_t *Row = Obligations.availRow(Q);
  FastUndoScratch.clear();
  auto Rollback = [&] {
    for (auto &[FP, U] : FastUndoScratch)
      FP->Replay.State->undoInput(U);
    return false;
  };
  for (std::size_t FI = 0; FI != CachedFamily.Assignments.size(); ++FI) {
    auto It = Frontiers.find(CachedInterpHashes[FI]);
    if (It == Frontiers.end())
      return Rollback();
    InterpFrontier &F = It->second;
    if (WindowBase != 0 && F.RetiredRows != WindowBase)
      return Rollback();
    if (F.Commits.size() + 1 != N)
      return Rollback();
    // Mirror the engine's frontier-adoption conditions exactly (a resumed
    // run that cannot adopt replays the seed — not this path's business).
    FrontierState &Replay = F.Replay;
    if (!Replay.Valid || !Replay.State || !Replay.State->supportsUndo())
      return Rollback();
    if (Replay.Len != F.RetiredLen + F.Master.size() || Replay.Len == 0)
      return Rollback();
    if (Replay.Used.size() > A || Replay.Used.size() > Obligations.stride())
      return Rollback();
    // The interpretation's init contribution, snapshotted by its last full
    // run; a frontier that has not seen every init action falls back to
    // the full sweep.
    const std::int32_t *InitAdd = nullptr;
    std::size_t InitLen = 0;
    if (!InitActions.empty()) {
      if (F.InitUpTo != InitActions.size())
        return Rollback();
      InitAdd = F.InitDense.data();
      InitLen = F.InitDense.size();
    }

    const std::uint64_t Salt =
        hashCombine(hashCombine(SessionSalt, Epoch), CachedInterpHashes[FI]);
    const std::uint64_t Key = hashCombine(
        hashCombine(hashCombine(detail::mix64(Salt), Committed),
                    Replay.State->digest()),
        Replay.UsedHash);
    Memo.prefetch(Key);

    // Branchless window-relative deficit scan over the newest obligation's
    // availability (shared invoked-counts row plus the init overlay; ids
    // beyond the overlay's dense range have no init contribution, ids
    // beyond the frontier's dense range are unused).
    const std::int32_t *Used = Replay.Used.data();
    const std::size_t UsedLen = Replay.Used.size();
    bool Over = false;
    for (std::size_t Id = 0; Id != UsedLen; ++Id) {
      const std::int32_t Add =
          Id < InitLen ? InitAdd[Id] : 0;
      Over |= Used[Id] > Row[Id] + Add;
    }
    if (Over)
      return Rollback();
    // Endpoint check: committing Q consumes one more of its input.
    const std::int32_t UsedIn = In < UsedLen ? Used[In] : 0;
    const std::int32_t AddIn =
        static_cast<std::size_t>(In) < InitLen ? InitAdd[In] : 0;
    if (UsedIn + 1 > Row[In] + AddIn)
      return Rollback();
    // Memo probe, short-circuit order as in the engine. A hit means the
    // engine would fail this subtree and fall through to the full root
    // search — let it run the whole thing for identical accounting.
    if (Memo.contains(Key))
      return Rollback();
    UndoToken U;
    if (Replay.State->applyInput(Interner.input(In), U, Scratch) !=
        Obligations.out(Q)) {
      Replay.State->undoInput(U);
      return Rollback();
    }
    FastUndoScratch.push_back({&F, U});
  }

  // Every member committed. From here the verdict is a guaranteed
  // family-wide Yes; advance each frontier in place exactly as the
  // engine's leaf capture would.
  for (auto &[FP, U] : FastUndoScratch) {
    (void)U;
    InterpFrontier &F = *FP;
    F.LastTouch = ++TouchCounter;
    if (F.Replay.Used.size() < static_cast<std::size_t>(A))
      F.Replay.Used.resize(A, 0); // Amortized: only when the alphabet grew.
    const std::int32_t C = F.Replay.Used[In]++;
    if (C > 0)
      F.Replay.UsedHash ^= detail::pairMix(In, C);
    F.Replay.UsedHash ^= detail::pairMix(In, C + 1);
    F.Replay.HasSeqHash = false;
    F.Replay.SeqHash = 0;

    ChainStats S;
    S.Nodes = 1;
    S.CommitMoves = 1;
    S.LeafChecks = 1;
    S.SeedStepsSkipped = F.RetiredLen + F.Master.size();
    Stats.Search.accumulate(S);
    ++Stats.FrontierResumes;

    ++F.Replay.Len;
    F.Master.push_back(In);
    F.Commits.push_back({Obligations.tag(Q), F.Replay.Len});
  }
  ++Stats.FastPathVerdicts;
  Stats.record(Verdict::Yes);
  Out.Outcome = Verdict::Yes;
  Out.Grade = VerdictGrade::Yes;
  Out.Exact = CachedFamily.Exact && Rel.abortSearchExact();
  Out.NodesExplored = FastUndoScratch.size();
  // This path replaces the family loop wholesale, so it retires the
  // since-verdict flags exactly as the loop's epilogue would. The cached
  // witnesses now lag the advanced frontiers; they are rebuilt on demand
  // (refreshCachedWitnesses) if a later witness consumer shows up.
  SawInvokeSinceVerdict = false;
  SawResponseSinceVerdict = false;
  SawInitSinceVerdict = false;
  NewObligations = 0;
  AnyVerdict = true;
  LastAbortValidityAtEnd = SOpts.AbortValidityAtEnd;
  LastFamilyHash = CachedFamilyHash;
  HaveResult = true;
  CachedVerdict.Outcome = Verdict::Yes;
  CachedVerdict.Exact = Out.Exact;
  CachedVerdict.Reason.clear();
  CachedVerdict.BudgetLimited = false;
  CachedWitnessesStale = true;
  return true;
}

void IncrementalSlinSession::refreshCachedWitnesses() {
  CachedVerdict.Witnesses.clear();
  for (std::size_t FI = 0; FI != CachedFamily.Assignments.size(); ++FI) {
    auto It = Frontiers.find(CachedInterpHashes[FI]);
    if (It == Frontiers.end())
      continue; // Defensive: every fast-path Yes member holds a frontier.
    const InterpFrontier &F = It->second;
    SlinWitness W;
    W.Master.reserve(F.Master.size());
    for (InputId Id : F.Master)
      W.Master.push_back(Interner.input(Id));
    W.Commits = F.Commits;
    // The fast path only serves abort-free deltas, so f_abort stays empty
    // — exactly what the engine's straight-line resume would have shaped.
    CachedVerdict.Witnesses.push_back(
        {CachedFamily.Assignments[FI], std::move(W)});
  }
  CachedWitnessesStale = false;
}

void IncrementalSlinSession::completeWitnesses(
    std::vector<std::pair<InitInterpretation, SlinWitness>> &Ws) const {
  if (WindowBase == 0)
    return;
  for (auto &[Finit, W] : Ws) {
    auto It = Frontiers.find(interpretationHash(Finit));
    if (It == Frontiers.end())
      continue; // Defensive: every Yes interpretation holds its frontier.
    const InterpFrontier &F = It->second;
    History Full;
    Full.reserve(F.RetiredMaster.size() + W.Master.size());
    for (InputId Id : F.RetiredMaster)
      Full.push_back(Interner.input(Id));
    Full.insert(Full.end(), W.Master.begin(), W.Master.end());
    W.Master = std::move(Full);
    W.Commits.insert(W.Commits.begin(), F.RetiredCommits.begin(),
                     F.RetiredCommits.end());
  }
}

std::size_t IncrementalSlinSession::memoryFootprintBytes() const {
  auto Rows = [](const std::vector<std::pair<std::size_t, std::size_t>> &V) {
    return V.capacity() * sizeof(std::pair<std::size_t, std::size_t>);
  };
  std::size_t FrontierBytes = 0;
  for (const auto &[Hash, F] : Frontiers) {
    FrontierBytes +=
        sizeof(Hash) + sizeof(InterpFrontier) + 3 * sizeof(void *) +
        (F.Master.capacity() + F.RetiredMaster.capacity()) * sizeof(InputId) +
        Rows(F.Commits) + Rows(F.RetiredCommits) +
        (F.Replay.Used.capacity() + F.RetiredBoundary.Used.capacity() +
         F.InitDense.capacity()) *
            sizeof(std::int32_t);
  }
  return Memo.memoryBytes() + Scratch.reservedBytes() +
         Interner.memoryBytes() + Obligations.memoryBytes() + FrontierBytes +
         Aborts.capacity() * sizeof(AbortRec) +
         InitActions.capacity() * sizeof(std::pair<std::size_t, Action>) +
         OpenStart.capacity() * sizeof(std::size_t) +
         InvokedDense.capacity() * sizeof(std::int32_t) +
         SeedScratch.capacity() * sizeof(InputId) + Rows(SeedCommitsScratch) +
         OverlayPtrs.capacity() * sizeof(const std::int32_t *) +
         (RunningInitScratch.capacity() + ContribScratch.capacity()) *
             sizeof(std::int32_t) +
         FastUndoScratch.capacity() *
             sizeof(std::pair<InterpFrontier *, UndoToken>) +
         CachedInterpHashes.capacity() * sizeof(std::uint64_t) +
         Builder.trace().capacity() * sizeof(Action);
}

void IncrementalSlinSession::reset() {
  Builder.clear();
  Obligations.clear();
  Aborts.clear();
  InitActions.clear();
  OpenStart.clear();
  Invoked = Multiset<Input>();
  InvokedDense.clear();
  MaxSeenVal = 0;
  NewObligations = 0;
  HaveCachedFamily = false;
  FamilyDirty = false;
  CachedFamily = InterpretationFamily();
  CachedInterpHashes.clear();
  CachedWitnessesStale = false;
  Doomed = false;
  DoomReason.clear();
  ++Epoch;
  SawInvokeSinceVerdict = false;
  SawResponseSinceVerdict = false;
  SawInitSinceVerdict = false;
  AnyVerdict = false;
  HaveResult = false;
  CachedVerdict = SlinVerdict();
  WindowBase = 0;
  OverflowNoted = false;
  HaveBoundedYes = false;
  AbortAfterRetire = false;
  // Frontiers of an unrelated trace are meaningless (their commit tags
  // index the old trace): discard, don't just invalidate.
  Frontiers.clear();
  Scratch.reset();
}
