//===- perfbench/src/Workloads.cpp ----------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "stack/Stack.h"
#include "support/Rng.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

using namespace slin;

namespace perfbench {

std::optional<Workload> parseWorkload(std::string_view Name) {
  if (Name == "fleet")
    return Workload::Fleet;
  if (Name == "overlap")
    return Workload::Overlap;
  if (Name == "speculative")
    return Workload::Speculative;
  return std::nullopt;
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::Fleet:
    return "fleet";
  case Workload::Overlap:
    return "overlap";
  case Workload::Speculative:
    return "speculative";
  }
  return "?";
}

Sizes defaultSizes(Workload W) {
  switch (W) {
  case Workload::Fleet:
    return {24, 60, 2};
  case Workload::Overlap:
    return {24, 300, 24};
  case Workload::Speculative:
    return {256, 1024, 512};
  }
  return {};
}

// The rates sit far below each workload's closed-loop events_per_s, so the
// open loop stays off its queueing cliff when the host's speed drifts.
double offeredRate(Workload W) {
  switch (W) {
  case Workload::Fleet:
    return 20000;
  case Workload::Overlap:
    return 5000;
  case Workload::Speculative:
    return 12000;
  }
  return 0;
}

// overlap's collapse depends on where the seed places the stragglers, so a
// run averages several streams.
std::size_t streamCount(Workload W) {
  return W == Workload::Overlap ? 6 : 1;
}

namespace {

constexpr unsigned KvClients = 4;
constexpr std::int64_t KvKeys = 4;
constexpr std::int64_t KvMaxValue = 4;
/// Corrupted outputs start here: no KV input writes a value this large and
/// no consensus proposal in these streams reaches it.
constexpr std::int64_t CorruptBase = 1000000000;
/// One corrupted object per this many objects.
constexpr std::size_t CorruptEvery = 64;

/// Picks the corrupted objects: one per block of CorruptEvery, at a seeded
/// position inside the block.
std::vector<ObjectId> pickCorrupted(std::size_t Objects, Rng &R) {
  std::vector<ObjectId> Out;
  for (std::size_t Base = 0; Base < Objects; Base += CorruptEvery) {
    std::size_t Span = std::min(CorruptEvery, Objects - Base);
    Out.push_back(static_cast<ObjectId>(Base + R.nextBounded(Span)));
  }
  return Out;
}

/// One KV object's generator state.
struct KvObject {
  std::unique_ptr<AdtState> Model;
  bool Corrupt = false;
  std::size_t CorruptRound = 0;
  bool TruthNo = false;
  bool StragglerOpen = false;
  unsigned StragglerClient = 0;
  Input StragglerIn;
  Output StragglerOut;
  std::size_t SinceStraggler = 0; ///< Completions since it invoked.
};

class KvGenerator {
public:
  KvGenerator(const KvShape &Shape, std::uint64_t Seed, Generated &G)
      : Shape(Shape), R(Seed), G(G) {
    Objects.resize(Shape.Objects);
    for (KvObject &O : Objects)
      O.Model = Kv.makeState();
    G.Objects = Shape.Objects;
    G.Corrupted = pickCorrupted(Shape.Objects, R);
  }

  /// Places each corruption in one of the 4 rounds from \p Round on.
  void scheduleCorruptions(std::size_t Round) {
    for (ObjectId Obj : G.Corrupted) {
      Objects[Obj].Corrupt = true;
      Objects[Obj].CorruptRound = Round + R.nextBounded(4);
    }
  }

  /// Emits round \p Round of every object, round-robin.
  void emitRound(std::size_t Round) {
    for (std::size_t Obj = 0; Obj != Objects.size(); ++Obj)
      emitObjectRound(static_cast<ObjectId>(Obj), Round);
  }

private:
  Input pick() {
    std::int64_t K = static_cast<std::int64_t>(R.nextBounded(KvKeys));
    switch (R.nextBounded(4)) {
    case 0:
    case 1:
      return kv::get(K);
    case 2:
      return kv::put(K, 1 + static_cast<std::int64_t>(
                                R.nextBounded(KvMaxValue)));
    default:
      return kv::del(K);
    }
  }

  ClientId global(ObjectId Obj, unsigned C) const {
    return static_cast<ClientId>(Obj * KvClients + C);
  }

  void push(ObjectId Obj, const Action &A) {
    G.Events.push_back({Obj, A, Objects[Obj].TruthNo});
  }

  void respond(ObjectId Obj, unsigned C, const Input &In, Output Out,
               bool &CorruptPending) {
    KvObject &O = Objects[Obj];
    if (CorruptPending) {
      CorruptPending = false;
      Out.Val = CorruptBase + static_cast<std::int64_t>(R.nextBounded(1000));
      O.TruthNo = true;
    }
    push(Obj, makeRespond(global(Obj, C), 1, In, Out));
    if (O.StragglerOpen)
      ++O.SinceStraggler;
  }

  void emitObjectRound(ObjectId Obj, std::size_t Round) {
    KvObject &O = Objects[Obj];
    bool StartStraggler =
        Shape.StragglerEvery && !O.StragglerOpen &&
        Round >= Shape.StragglerFrom &&
        (Round + Obj * 5) % Shape.StragglerEvery == 0;
    unsigned Straggler =
        StartStraggler ? static_cast<unsigned>(
                             (Round / Shape.StragglerEvery + Obj) % KvClients)
                       : KvClients;

    unsigned Clients[KvClients];
    Input Ins[KvClients];
    unsigned N = 0;
    for (unsigned C = 0; C != KvClients; ++C) {
      if (O.StragglerOpen && C == O.StragglerClient)
        continue;
      Clients[N] = C;
      Ins[N] = pick();
      push(Obj, makeInvoke(global(Obj, C), 1, Ins[N]));
      ++N;
    }

    // Effect order: invocation order, or a seeded shuffle. Every
    // invocation of the round precedes every response, so any order is a
    // valid linearization point sequence.
    unsigned Effect[KvClients];
    for (unsigned K = 0; K != N; ++K)
      Effect[K] = K;
    if (Shape.Shuffle)
      shuffle(Effect, N);
    Output Outs[KvClients];
    for (unsigned K = 0; K != N; ++K)
      Outs[Effect[K]] = O.Model->apply(Ins[Effect[K]]);

    unsigned Order[KvClients];
    for (unsigned K = 0; K != N; ++K)
      Order[K] = K;
    if (Shape.Shuffle)
      shuffle(Order, N);

    bool CorruptPending = O.Corrupt && Round == O.CorruptRound;
    for (unsigned K = 0; K != N; ++K) {
      unsigned Slot = Order[K];
      if (StartStraggler && Clients[Slot] == Straggler) {
        O.StragglerOpen = true;
        O.StragglerClient = Straggler;
        O.StragglerIn = Ins[Slot];
        O.StragglerOut = Outs[Slot];
        O.SinceStraggler = 0;
        continue;
      }
      respond(Obj, Clients[Slot], Ins[Slot], Outs[Slot], CorruptPending);
    }
    if (O.StragglerOpen && O.SinceStraggler >= Shape.StragglerHold) {
      O.StragglerOpen = false;
      bool NoCorrupt = false;
      respond(Obj, O.StragglerClient, O.StragglerIn, O.StragglerOut,
              NoCorrupt);
    }
  }

  void shuffle(unsigned *V, unsigned N) {
    for (unsigned K = N; K > 1; --K)
      std::swap(V[K - 1], V[R.nextBounded(K)]);
  }

  KvShape Shape;
  KvStoreAdt Kv;
  Rng R;
  Generated &G;
  std::vector<KvObject> Objects;
};

} // namespace

Generated generateKv(const KvShape &Shape, std::uint64_t Seed,
                     const Sizes &S) {
  Generated G;
  KvGenerator Gen(Shape, Seed, G);
  Gen.scheduleCorruptions(S.WarmUnits);
  std::size_t Round = 0;
  for (; Round != S.WarmUnits; ++Round)
    Gen.emitRound(Round);
  G.WarmEvents = G.Events.size();
  for (; Round != S.WarmUnits + S.ClosedUnits; ++Round)
    Gen.emitRound(Round);
  G.ClosedEvents = G.Events.size() - G.WarmEvents;
  for (; Round != S.WarmUnits + S.ClosedUnits + S.OpenUnits; ++Round)
    Gen.emitRound(Round);
  G.OpenEvents = G.Events.size() - G.WarmEvents - G.ClosedEvents;
  return G;
}

namespace {

/// Consensus slots of the Quorum->Paxos stack under contention: 3 servers,
/// 3 or 4 concurrent proposers per slot.
Generated generateSpeculative(std::uint64_t Seed, const Sizes &S) {
  constexpr unsigned Clients = 4;
  constexpr SimTime SlotSpacing = 400;
  std::size_t Slots = S.WarmUnits + S.ClosedUnits + S.OpenUnits;
  if (Slots * Clients >= MaxObjectId)
    throw std::invalid_argument("too many slots for wire client ids");

  StackConfig Config;
  Config.NumServers = 3;
  Config.NumClients = Clients;
  Config.Net.MinDelay = 5;
  Config.Net.MaxDelay = 20;
  Config.Seed = Seed;
  StackHarness H(Config);
  Rng R(Seed ^ 0x5bd1e995u);
  for (std::size_t Slot = 0; Slot != Slots; ++Slot) {
    unsigned Who[Clients] = {0, 1, 2, 3};
    for (unsigned K = Clients; K > 1; --K)
      std::swap(Who[K - 1], Who[R.nextBounded(K)]);
    unsigned Proposers = 3 + static_cast<unsigned>(R.nextBounded(2));
    for (unsigned K = 0; K != Proposers; ++K)
      H.submitAt(static_cast<SimTime>(Slot) * SlotSpacing +
                     static_cast<SimTime>(R.nextBounded(3)),
                 Who[K], static_cast<std::uint32_t>(Slot),
                 static_cast<std::int64_t>(Slot * Clients + Who[K] + 1));
  }
  H.run();

  Generated G;
  G.Objects = Slots;
  G.Corrupted = pickCorrupted(Slots, R);
  std::vector<bool> Corrupt(Slots, false);
  for (ObjectId Obj : G.Corrupted)
    Corrupt[Obj] = true;
  for (std::size_t Slot = 0; Slot != Slots; ++Slot) {
    if (Slot == S.WarmUnits)
      G.WarmEvents = G.Events.size();
    if (Slot == S.WarmUnits + S.ClosedUnits)
      G.ClosedEvents = G.Events.size() - G.WarmEvents;
    const Trace &T = H.slotTrace(static_cast<std::uint32_t>(Slot));
    // The corruption replaces the slot's last decision with a value no
    // client proposed.
    std::size_t LastResponse = T.size();
    for (std::size_t I = 0; I != T.size(); ++I)
      if (isRespond(T[I]))
        LastResponse = I;
    if (Corrupt[Slot] && LastResponse == T.size())
      throw std::runtime_error("corrupted slot has no response");
    bool TruthNo = false;
    auto Obj = static_cast<ObjectId>(Slot);
    for (std::size_t I = 0; I != T.size(); ++I) {
      Action A = T[I];
      A.Client = static_cast<ClientId>(Slot * Clients + A.Client);
      if (Corrupt[Slot] && I == LastResponse) {
        A.Out = cons::decide(CorruptBase + static_cast<std::int64_t>(Slot));
        TruthNo = true;
      }
      G.Events.push_back({Obj, A, TruthNo});
    }
  }
  G.OpenEvents = G.Events.size() - G.WarmEvents - G.ClosedEvents;
  return G;
}

} // namespace

KvShape kvShape(Workload W) {
  KvShape Shape;
  if (W == Workload::Fleet) {
    Shape.Objects = 1024;
  } else if (W == Workload::Overlap) {
    Shape.Objects = 16;
    Shape.Shuffle = true;
    Shape.StragglerEvery = 64;
    Shape.StragglerHold = 72;
    Shape.StragglerFrom = 18;
  }
  return Shape;
}

Generated generate(Workload W, std::uint64_t Seed, const Sizes &S) {
  if (W == Workload::Speculative)
    return generateSpeculative(Seed, S);
  return generateKv(kvShape(W), Seed, S);
}

WireStream render(const Generated &G) {
  WireStream W;
  W.WarmEvents = G.WarmEvents;
  W.ClosedEvents = G.ClosedEvents;
  W.OpenEvents = G.OpenEvents;
  W.Objects = G.Objects;
  W.Text.reserve(G.Events.size() * 28);
  W.LineStart.reserve(G.Events.size() + 1);
  W.Object.reserve(G.Events.size());
  W.TruthNo.reserve(G.Events.size());
  for (const Event &E : G.Events) {
    W.LineStart.push_back(static_cast<std::uint32_t>(W.Text.size()));
    appendServiceLine(W.Text, E.Object, E.A);
    W.Object.push_back(E.Object);
    W.TruthNo.push_back(E.TruthNo ? 1 : 0);
    if (W.Text.size() > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("wire stream exceeds 4 GiB");
  }
  W.LineStart.push_back(static_cast<std::uint32_t>(W.Text.size()));
  return W;
}

std::vector<Trace> objectTraces(const Generated &G) {
  std::vector<Trace> Traces(G.Objects);
  std::vector<ClientRemap> Remaps(G.Objects);
  for (const Event &E : G.Events) {
    Action A = E.A;
    A.Client = Remaps[E.Object].local(A.Client);
    Traces[E.Object].push_back(A);
  }
  return Traces;
}

} // namespace perfbench
