// The benchmark's workloads: fixed request lists generated from the seed.
//
// Every run of one (workload, seed, seconds) triple sends exactly the same
// request lines in the same per-connection order; there is no duration
// bound that could cut a run short at a different prefix. `seconds` only
// scales how many requests the fixed list holds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind {
  kSolve,     // answer-bearing: solve with an inline instance
  kSnapshot,  // answer-bearing: session snapshot
  kMutation,  // submit_job / cancel_job
  kControl,   // open_session / close_session
};

struct Request {
  std::string line;
  std::int64_t id = 0;
  Kind kind = Kind::kSolve;
  int key = -1;                  // warm_hit: index of the distinct instance
  std::int64_t expect_job = -1;  // submit_job: the predicted session job id
};

// One connection's requests, by phase. `setup` runs before the timed
// window and is timed as part of setup_s.
struct ConnScript {
  std::vector<Request> setup;
  std::vector<Request> timed;
};

struct Workload {
  std::string name;
  std::vector<ConnScript> conns;  // one script per connection
};

// The load: closed loop over this many connections, one caller thread
// each, against `msrs_engine_cli serve --shards=kShards`.
inline constexpr int kConnections = 2;
inline constexpr unsigned kShards = 2;

// Builds the request lists of a workload. `tiny` selects the self-test
// size (a fraction of a second per workload). Returns false for an unknown
// workload name.
bool make_workload(const std::string& name, std::uint64_t seed, int seconds,
                   bool tiny, Workload* out);

// Inserts one request whose instance declares `machines 0` in the middle
// of connection 0's timed list. The service must answer it with the named
// error `bad_instance`; the self-test checks that it is counted as a
// failure under that name.
void inject_corrupt_request(Workload* workload);

bool answer_bearing(Kind kind);

}  // namespace perfbench
