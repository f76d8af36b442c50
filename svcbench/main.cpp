// svcbench — the service benchmark's harness binary. One process runs one
// workload (ingest, serve or readmix) with fixed work sized from --seconds,
// checks the program's outputs against folds computed apart from it, and
// prints one JSON record as its last stdout line. run.py builds and drives
// it; see README.md for the workloads, metrics and reference figures.
//
//   svcbench --workload=ingest --seed=7 --seconds=10 [--trace=1
//            --trace_out=PREFIX] [--smoke=1]
#include <cstdio>
#include <string>

#include "common.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  const pwf::Cli cli(argc, argv,
                     {{"workload", ""},
                      {"seed", "1"},
                      {"seconds", "20"},
                      {"trace", "0"},
                      {"trace_out", "svcbench"},
                      {"smoke", "0"}});
  svcbench::Options opt;
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opt.seconds = cli.get_double("seconds");
  opt.trace = cli.get_int("trace") != 0;
  opt.smoke = cli.get_int("smoke") != 0;
  const std::string wl = cli.get_str("workload");
  if (opt.seconds <= 0.0 || opt.seconds > 120.0) {
    std::fprintf(stderr, "--seconds must be in (0, 120]\n");
    return 2;
  }
  if (opt.trace) svcbench::Tracer::enable();

  svcbench::Result res(wl.c_str());
  if (wl == "ingest") {
    svcbench::run_ingest(opt, res);
  } else if (wl == "serve") {
    svcbench::run_serve(opt, res);
  } else if (wl == "readmix") {
    svcbench::run_readmix(opt, res);
  } else {
    std::fprintf(stderr, "unknown --workload '%s' (ingest|serve|readmix)\n",
                 wl.c_str());
    return 2;
  }
  if (opt.trace) svcbench::write_trace(cli.get_str("trace_out"), wl.c_str());
  res.layer("proc.peak_rss_mb", svcbench::peak_rss_mb());
  res.emit();
  return 0;
}
