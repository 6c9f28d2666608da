#include "scale/lookahead.hpp"

#include <algorithm>
#include <sstream>

namespace pasched::scale {

using sim::Duration;

namespace {

std::vector<std::int64_t> off_diagonal_ns(const LookaheadMatrix& m) {
  std::vector<std::int64_t> v;
  v.reserve(static_cast<std::size_t>(m.shards) *
            static_cast<std::size_t>(m.shards));
  for (int a = 0; a < m.shards; ++a)
    for (int b = 0; b < m.shards; ++b)
      if (a != b) v.push_back(m.at(a, b).count());
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

Duration LookaheadMatrix::min_pair() const {
  const auto v = off_diagonal_ns(*this);
  return v.empty() ? Duration::zero() : Duration::ns(v.front());
}

Duration LookaheadMatrix::median_pair() const {
  const auto v = off_diagonal_ns(*this);
  return v.empty() ? Duration::zero() : Duration::ns(v[v.size() / 2]);
}

Duration LookaheadMatrix::max_pair() const {
  const auto v = off_diagonal_ns(*this);
  return v.empty() ? Duration::zero() : Duration::ns(v.back());
}

std::string LookaheadMatrix::certificate_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"certificate\": \"pasched-scale lookahead matrix v1\",\n"
     << "  \"nodes\": " << nodes << ",\n"
     << "  \"shards\": " << shards << ",\n"
     << "  \"hub_shard\": " << hub_shard << ",\n"
     << "  \"global_lookahead_ns\": " << global.count() << ",\n"
     << "  \"min_pair_ns\": " << min_pair().count() << ",\n"
     << "  \"median_pair_ns\": " << median_pair().count() << ",\n"
     << "  \"max_pair_ns\": " << max_pair().count() << ",\n"
     << "  \"bounds_ns\": [\n";
  for (int a = 0; a < shards; ++a) {
    os << "    [";
    for (int b = 0; b < shards; ++b)
      os << at(a, b).count() << (b + 1 < shards ? ", " : "");
    os << "]" << (a + 1 < shards ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

LookaheadMatrix build_lookahead_matrix(const net::FabricConfig& cfg,
                                       const sim::ShardMap& map) {
  return {net::pair_lookahead(cfg, map), map.nodes(), map.hub()};
}

}  // namespace pasched::scale
