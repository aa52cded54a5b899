#include "nexmark/queries.h"

namespace jet::nexmark {

namespace {

using core::AggregateOperation;
using core::WindowDef;
using core::WindowResult;
using pipeline::StreamStage;

/// Argmax aggregate used by Q5 (most-bid auction) and Q7 (highest bid).
template <typename In>
AggregateOperation<In, HotItemAcc, HotItemAcc> ArgMaxAggregate(
    std::function<int64_t(const In&)> key_of, std::function<int64_t(const In&)> value_of) {
  AggregateOperation<In, HotItemAcc, HotItemAcc> op;
  op.create = []() { return HotItemAcc{}; };
  op.accumulate = [key_of, value_of](HotItemAcc* acc, const In& in) {
    int64_t v = value_of(in);
    if (v > acc->value) *acc = HotItemAcc{key_of(in), v};
  };
  op.combine = [](HotItemAcc* acc, const HotItemAcc& other) {
    if (other.value > acc->value) *acc = other;
  };
  op.finish = [](const HotItemAcc& acc) { return acc; };
  op.serialize = [](const HotItemAcc& acc, BytesWriter* w) {
    w->WriteVarI64(acc.key);
    w->WriteVarI64(acc.value);
  };
  op.deserialize = [](BytesReader* r) {
    HotItemAcc acc;
    (void)r->ReadVarI64(&acc.key);
    (void)r->ReadVarI64(&acc.value);
    return acc;
  };
  return op;
}

/// Max-price-with-seller aggregate used by Q6's winning-bid step.
AggregateOperation<AuctionSale, AuctionSale, AuctionSale> WinningBidAggregate() {
  AggregateOperation<AuctionSale, AuctionSale, AuctionSale> op;
  op.create = []() { return AuctionSale{0, 0, 0, -1}; };
  op.accumulate = [](AuctionSale* acc, const AuctionSale& in) {
    if (in.price > acc->price) *acc = in;
  };
  op.combine = [](AuctionSale* acc, const AuctionSale& other) {
    if (other.price > acc->price) *acc = other;
  };
  op.finish = [](const AuctionSale& acc) { return acc; };
  op.serialize = [](const AuctionSale& acc, BytesWriter* w) {
    w->WriteVarI64(acc.auction);
    w->WriteVarI64(acc.seller);
    w->WriteVarI64(acc.category);
    w->WriteVarI64(acc.price);
  };
  op.deserialize = [](BytesReader* r) {
    AuctionSale acc;
    int64_t category = 0;
    (void)r->ReadVarI64(&acc.auction);
    (void)r->ReadVarI64(&acc.seller);
    (void)r->ReadVarI64(&category);
    (void)r->ReadVarI64(&acc.price);
    acc.category = static_cast<int32_t>(category);
    return acc;
  };
  return op;
}

/// The common event source of every query.
StreamStage<Event> AddSource(NexmarkQuery* q, const QueryConfig& config) {
  core::GeneratorSourceP<Event>::Options opt;
  opt.events_per_second = config.events_per_second;
  opt.duration = config.duration;
  opt.watermark_interval = config.watermark_interval;
  opt.start_time = config.start_time;
  return q->pipeline.ReadFrom<Event>("nexmark-source",
                                     MakeEventGenFn(config.generator), opt,
                                     config.source_parallelism);
}

StreamStage<Bid> Bids(StreamStage<Event> events) {
  return events.FlatMap<Bid>("bids", [](const Event& e, std::vector<Bid>* out) {
    if (e.kind == EventKind::kBid) out->push_back(e.bid);
  });
}

StreamStage<Auction> Auctions(StreamStage<Event> events) {
  return events.FlatMap<Auction>("auctions",
                                 [](const Event& e, std::vector<Auction>* out) {
                                   if (e.kind == EventKind::kAuction)
                                     out->push_back(e.auction);
                                 });
}

StreamStage<Person> Persons(StreamStage<Event> events) {
  return events.FlatMap<Person>("persons", [](const Event& e, std::vector<Person>* out) {
    if (e.kind == EventKind::kPerson) out->push_back(e.person);
  });
}

void Sink(NexmarkQuery* q, const QueryConfig& config, auto stage) {
  stage.WriteToLatencySink("latency-sink", q->latency.get(), config.sink_parallelism);
}

// --- Q1: currency conversion (simple map, §7.1) ---
void BuildQ1(NexmarkQuery* q, const QueryConfig& config) {
  auto out = Bids(AddSource(q, config)).Map<Bid>("dol-to-eur", [](const Bid& b) {
    Bid converted = b;
    converted.price = static_cast<int64_t>(static_cast<double>(b.price) * kDolToEur);
    return converted;
  });
  Sink(q, config, out);
}

// --- Q2: selection — bids on a subset of auction numbers (§7.1) ---
void BuildQ2(NexmarkQuery* q, const QueryConfig& config) {
  auto out = Bids(AddSource(q, config)).Filter("auction-mod", [](const Bid& b) {
    return b.auction % 123 == 0;
  });
  Sink(q, config, out);
}

// --- Q3: join + filter — sellers in particular US states (§7.1) ---
void BuildQ3(NexmarkQuery* q, const QueryConfig& config) {
  auto events = AddSource(q, config);
  auto persons = Persons(events).Filter("in-states", [](const Person& p) {
    return p.state == 0 || p.state == 5 || p.state == 10;  // "OR, ID, CA"
  });
  auto auctions = Auctions(events).Filter("category-10-ish", [](const Auction& a) {
    return a.category == 1;
  });
  auto joined = persons.WindowJoin<Auction, Q3Result>(
      "person-auction-join", auctions,
      [](const Person& p) { return static_cast<uint64_t>(p.id); },
      [](const Auction& a) { return static_cast<uint64_t>(a.seller); },
      [](const Person& p, const Auction& a) {
        return Q3Result{p.id, p.city, a.id};
      },
      config.window_size);
  Sink(q, config, joined);
}

// --- Q4: average selling price per category (§7.1) ---
void BuildQ4(NexmarkQuery* q, const QueryConfig& config) {
  auto events = AddSource(q, config);
  auto auctions = Auctions(events);
  auto bids = Bids(events);
  auto sales = auctions.WindowJoin<Bid, AuctionSale>(
      "auction-bid-join", bids,
      [](const Auction& a) { return static_cast<uint64_t>(a.id); },
      [](const Bid& b) { return static_cast<uint64_t>(b.auction); },
      [](const Auction& a, const Bid& b) {
        return AuctionSale{a.id, a.seller, a.category, b.price};
      },
      config.window_size);
  auto avg =
      sales
          .GroupingKey([](const AuctionSale& s) { return static_cast<uint64_t>(s.category); })
          .Window(WindowDef::Tumbling(config.window_size))
          .Aggregate<core::AvgAcc, double>(
              "avg-price-per-category",
              core::AveragingAggregate<AuctionSale>(
                  [](const AuctionSale& s) { return s.price; }));
  Sink(q, config, avg);
}

// --- Q5: hot items — sliding-window bid counts per auction (§7.1, the
// paper's stress query: 10s window sliding by 10ms) ---
void BuildQ5(NexmarkQuery* q, const QueryConfig& config) {
  auto counts =
      Bids(AddSource(q, config))
          .GroupingKey([](const Bid& b) { return static_cast<uint64_t>(b.auction); })
          .Window(WindowDef::Sliding(config.window_size, config.window_slide))
          .Aggregate<int64_t, int64_t>("bid-count", core::CountingAggregate<Bid>());
  // Latency is measured at the aggregating stage's emission, per §7.1
  // ("the clock stops when Jet has started emitting the window results").
  Sink(q, config, counts);
}

// --- Q6: average selling price per seller over their last 10 closed
// auctions (§7.1, the oil-rig-like specialized combiner) ---
void BuildQ6(NexmarkQuery* q, const QueryConfig& config) {
  auto events = AddSource(q, config);
  auto sales = Auctions(events).WindowJoin<Bid, AuctionSale>(
      "auction-bid-join", Bids(events),
      [](const Auction& a) { return static_cast<uint64_t>(a.id); },
      [](const Bid& b) { return static_cast<uint64_t>(b.auction); },
      [](const Auction& a, const Bid& b) {
        return AuctionSale{a.id, a.seller, a.category, b.price};
      },
      config.window_size);
  // Winning (max) bid per auction per window = the closing price.
  auto winning =
      sales.GroupingKey([](const AuctionSale& s) { return static_cast<uint64_t>(s.auction); })
          .Window(WindowDef::Tumbling(config.window_size))
          .Aggregate<AuctionSale, AuctionSale>("winning-bid", WinningBidAggregate());
  // Average of each seller's last 10 closing prices.
  auto avg =
      winning
          .Map<AuctionSale>("unwrap",
                            [](const WindowResult<AuctionSale>& r) { return r.value; })
          .GroupingKey(
              [](const AuctionSale& s) { return static_cast<uint64_t>(s.seller); })
          .Window(WindowDef::Tumbling(config.window_size))
          .Aggregate<core::LastNAcc, double>(
              "avg-last-10",
              core::LastNAverageAggregate<AuctionSale>(
                  [](const AuctionSale& s) { return s.price; }, 10));
  Sink(q, config, avg);
}

// --- Q7: highest bid per period (§7.1 "fanout using side input") ---
void BuildQ7(NexmarkQuery* q, const QueryConfig& config) {
  auto highest =
      Bids(AddSource(q, config))
          .GroupingKey([](const Bid&) { return uint64_t{0}; })  // global window
          .Window(WindowDef::Tumbling(config.window_size))
          .Aggregate<HotItemAcc, HotItemAcc>(
              "highest-bid",
              ArgMaxAggregate<Bid>([](const Bid& b) { return b.auction; },
                                   [](const Bid& b) { return b.price; }));
  Sink(q, config, highest);
}

// --- Q8: monitor new users — persons who created an auction in the last
// period (§7.1) ---
void BuildQ8(NexmarkQuery* q, const QueryConfig& config) {
  auto events = AddSource(q, config);
  auto joined = Persons(events).WindowJoin<Auction, int64_t>(
      "new-user-auction-join", Auctions(events),
      [](const Person& p) { return static_cast<uint64_t>(p.id); },
      [](const Auction& a) { return static_cast<uint64_t>(a.seller); },
      [](const Person& p, const Auction&) { return p.id; }, config.window_size);
  Sink(q, config, joined);
}

// --- Q13: join with a bounded side input (§7.1) ---
void BuildQ13(NexmarkQuery* q, const QueryConfig& config) {
  // The bounded side input: one static metadata row per auction id.
  std::vector<std::pair<int64_t, uint64_t>> side;
  side.reserve(static_cast<size_t>(config.generator.auctions));
  for (int64_t id = 0; id < config.generator.auctions; ++id) {
    side.push_back({id * 7 + 1, HashU64(static_cast<uint64_t>(id))});
  }
  auto side_stage = q->pipeline.ReadFromList<int64_t>("side-input", std::move(side));

  auto enriched =
      Bids(AddSource(q, config))
          .HashJoin<int64_t, Bid>(
              "bid-side-join", side_stage,
              [](const int64_t& meta) { return static_cast<uint64_t>((meta - 1) / 7); },
              [](const Bid& b) { return static_cast<uint64_t>(b.auction); },
              [](const Bid& b, const std::vector<int64_t>& metas, std::vector<Bid>* out) {
                Bid enriched_bid = b;
                if (!metas.empty()) enriched_bid.price += metas.front() % 10;
                out->push_back(enriched_bid);
              });
  Sink(q, config, enriched);
}

}  // namespace

bool IsQuerySupported(int query_number) {
  switch (query_number) {
    case 1:
    case 2:
    case 3:
    case 4:
    case 5:
    case 6:
    case 7:
    case 8:
    case 13:
      return true;
    default:
      return false;
  }
}

Result<std::unique_ptr<NexmarkQuery>> BuildQuery(int query_number,
                                                 const QueryConfig& config) {
  if (!IsQuerySupported(query_number)) {
    return InvalidArgumentError("unsupported NEXMark query " +
                                std::to_string(query_number));
  }
  auto q = std::make_unique<NexmarkQuery>();
  q->query_number = query_number;
  switch (query_number) {
    case 1:
      BuildQ1(q.get(), config);
      break;
    case 2:
      BuildQ2(q.get(), config);
      break;
    case 3:
      BuildQ3(q.get(), config);
      break;
    case 4:
      BuildQ4(q.get(), config);
      break;
    case 5:
      BuildQ5(q.get(), config);
      break;
    case 6:
      BuildQ6(q.get(), config);
      break;
    case 7:
      BuildQ7(q.get(), config);
      break;
    case 8:
      BuildQ8(q.get(), config);
      break;
    case 13:
      BuildQ13(q.get(), config);
      break;
    default:
      return InvalidArgumentError("unreachable");
  }
  return q;
}

}  // namespace jet::nexmark
