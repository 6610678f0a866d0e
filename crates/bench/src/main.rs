//! `csaw-bench <command> [flags]`: the one front door to the evaluation
//! (§10), its soaks and its CI gates.
//!
//! Every command is one row of the tables below: its name, its usage
//! (operand and flags with their defaults, as `help` prints them), what
//! it does, and its body. One parser ([`parse`]) checks a command line
//! against the row's usage; one exit path ([`emit`] and `main`) turns
//! what a body returns into `results/` files and an exit status: 0 when
//! every gate held, 1 when one broke, 2 for input the table does not
//! list (after printing the usage).

use std::fs;
use std::path::Path;
use std::process::exit;
use std::str::FromStr;

use csaw_bench::report::Outcome;
use csaw_bench::sim_runs::{Scenario, ScheduleSpec};
use csaw_bench::{
    ablations, autoscale_runs, chaos, conformance_runs, exp_curl, exp_loc, exp_redis, exp_suricata,
    micro, overload, perf, reconfig_runs, self_healing, sim_cmd,
};
use csaw_runtime::env_seed;

/// A command's body: what it hands the exit path, or an input error.
type Run = fn(&Args) -> Result<Outcome, String>;

enum Body {
    Run(Run),
    /// Run these rows in turn: all of them, or the ones named as
    /// operands.
    Each(&'static [Cmd]),
}

/// One row of a command table. `usage` is an optional leading operand
/// (`FILE`: exactly one path; `NAME...`: any names of the rows a
/// [`Body::Each`] runs) followed by flags, each `--flag` (a switch) or
/// `--flag KIND[=default]` (a value), where KIND is what the value must
/// be (see [`valid`]).
struct Cmd {
    name: Str,
    usage: Str,
    about: Str,
    body: Body,
}

type Str = &'static str;

impl Cmd {
    /// `flag`'s `KIND[=default]` (`""` for a switch), or `None` when the
    /// command does not take it.
    fn flag(&self, flag: &str) -> Option<Str> {
        let mut words = self.usage.split_whitespace();
        words.find(|w| *w == flag)?;
        Some(words.next().filter(|w| !w.starts_with("--")).unwrap_or(""))
    }
}

const fn cmd(name: Str, usage: Str, about: Str, run: Run) -> Cmd {
    Cmd { name, usage, about, body: Body::Run(run) }
}

const fn each(name: Str, usage: Str, about: Str, rows: &'static [Cmd]) -> Cmd {
    Cmd { name, usage, about, body: Body::Each(rows) }
}

/// Whether `value` is a `kind`: `N` a whole number, `S` a positive
/// number of seconds, `SCENARIO` a scenario label (`SCENARIOS`: or
/// `all`), `FILE` a path.
fn valid(kind: &str, value: &str) -> bool {
    match kind {
        "N" => value.parse::<u64>().is_ok(),
        "S" => value.parse::<f64>().is_ok_and(|s| s.is_finite() && s > 0.0),
        "SCENARIO" => Scenario::parse(value).is_some(),
        "SCENARIOS" => value == "all" || Scenario::parse(value).is_some(),
        "FILE" => !value.is_empty() && !value.starts_with('-'),
        _ => false,
    }
}

/// Every table and figure, in the order `all` runs them. A figure run
/// alone and under `all` gets the same defaults.
const FIGURES: &[Cmd] = &[
    cmd(
        "fig23a",
        "--seconds S=8",
        "Fig. 23a: Redis query rate under checkpoints and a crash",
        |a| Ok(exp_redis::fig23a(a.num("--seconds")).into()),
    ),
    cmd("fig23b", "--seconds S=8", "Fig. 23b: cumulative Redis requests sharded by key", |a| {
        Ok(exp_redis::fig23b(a.num("--seconds")).into())
    }),
    cmd("fig23c", "--seconds S=8", "Fig. 23c: Redis query rate with and without caching", |a| {
        Ok(exp_redis::fig23c(a.num("--seconds")).into())
    }),
    cmd("fig24a", "--seconds S=8", "Fig. 24a: Suricata packet rate under checkpoints", |a| {
        Ok(exp_suricata::fig24a(a.num("--seconds")).into())
    }),
    cmd("fig24b", "--seconds S=8", "Fig. 24b: cumulative Suricata packets by 5-tuple", |a| {
        Ok(exp_suricata::fig24b(a.num("--seconds")).into())
    }),
    cmd("fig24c", "--seconds S=8", "Fig. 24c: normalized Suricata checkpointing overhead", |a| {
        Ok(exp_suricata::fig24c(a.num("--seconds")).into())
    }),
    cmd("fig25ab", "--reps N=3", "Figs. 25a/25b: cURL small-file download time, overhead", |a| {
        Ok(exp_curl::fig25ab(a.num("--reps")).into())
    }),
    cmd("fig25c", "", "Fig. 25c: Redis GET latency CDFs (1500 ops each)", |_| {
        Ok(exp_redis::fig25c().into())
    }),
    cmd("fig26a", "--reps N=3 --full", "Fig. 26a: cURL large files (--full: to 1.2GB)", |a| {
        Ok(exp_curl::fig26a(a.num("--reps"), a.on("--full")).into())
    }),
    cmd("fig26b", "", "Fig. 26b: Redis SET latency CDFs (1500 ops each)", |_| {
        Ok(exp_redis::fig26b().into())
    }),
    cmd("fig26c", "--seconds S=8", "Fig. 26c: cumulative Redis requests by object size", |a| {
        Ok(exp_redis::fig26c(a.num("--seconds")).into())
    }),
    cmd("table2", "", "Table 2: the effort (LoC) study", |_| Ok(exp_loc::table2().into())),
];

/// The DESIGN.md ablations, in the order `ablations` runs them.
const ABLATIONS: &[Cmd] = &[
    cmd("transports", "", "delivery latency by link kind (TCP included: minutes)", |_| {
        Ok(ablations::transports(2000).into())
    }),
    cmd("serializer_depth", "", "serializer depth cap vs encode cost and size", |_| {
        Ok(ablations::serializer_depth().into())
    }),
    cmd("failover_designs", "", "write-to-all vs watched fail-over", |_| {
        Ok(ablations::failover_designs(30).into())
    }),
    cmd("fanout", "", "parallel (+) vs sequential (;) fan-out", |_| {
        Ok(ablations::fanout(6, 30, 10).into())
    }),
    cmd("fault_tolerance", "", "drop-rate sweep, reliability layer on vs off", |_| {
        Ok(ablations::fault_tolerance(16).into())
    }),
];

const COMMANDS: &[Cmd] = &[
    each("all", "--seconds S=8 --reps N=3", "every table and figure above, in turn", FIGURES),
    each("ablations", "NAME...", "the DESIGN.md ablations (no NAME: all of them)", ABLATIONS),
    cmd(
        "chaos",
        "--seed N=42 --requests N=120 --unreliable --conformance",
        "chaos soak of the fail-over architectures (--unreliable: retry and dedup off, \
         a violation must be demonstrated; --conformance: also replay the traces)",
        |a| {
            let (unreliable, conformance) = (a.on("--unreliable"), a.on("--conformance"));
            Ok(chaos::command(a.seed(), a.num("--requests"), unreliable, conformance))
        },
    ),
    cmd("conformance", "--seed N=42", "seven architectures' traces must all conform", |a| {
        Ok(conformance_runs::command(a.seed()))
    }),
    cmd("reconfig", "--smoke", "four live hot-swaps under traffic (--smoke: CI windows)", |a| {
        Ok(reconfig_runs::command(a.on("--smoke")))
    }),
    cmd("self-healing", "--smoke", "supervisor MTTR per failure class under traffic", |a| {
        Ok(self_healing::command(a.on("--smoke")))
    }),
    cmd("autoscale", "--smoke", "metrics-driven autoscaler over a diurnal day", |a| {
        Ok(autoscale_runs::command(a.on("--smoke")))
    }),
    cmd("overload", "--smoke", "open-loop storm: goodput with shedding on vs off", |a| {
        Ok(overload::command(a.on("--smoke")))
    }),
    cmd(
        "sim explore",
        "--scenario SCENARIO=failover --shards N=1 --replicas N=1 --schedules N=100 --seed N=1 \
         --buggy",
        "seeded schedules from consecutive seeds; red ones are shrunk and dumped",
        |a| Ok(sim_cmd::explore(&a.spec(a.seed()), a.num("--schedules"))),
    ),
    cmd(
        "sim replay",
        "FILE --scenario SCENARIO=failover --shards N=1 --replicas N=1 --buggy",
        "re-execute a schedule artifact under the instance set it was recorded with",
        |a| sim_cmd::replay(&a.spec(0), &a.operands[0]),
    ),
    cmd(
        "sim dfs",
        "--scenario SCENARIO=failover --shards N=1 --replicas N=1 --seed N=1 --budget N=12 \
         --compare --naive-cap N=100000 --buggy",
        "exhaust one scenario's schedule tree (--compare: and naive DFS's, capped)",
        |a| {
            let naive_cap = a.on("--compare").then(|| a.num("--naive-cap"));
            Ok(sim_cmd::dfs(&a.spec(a.seed()), a.num("--budget"), naive_cap))
        },
    ),
    cmd(
        "sim grid",
        "--scenario SCENARIOS=all --budget N=12 --max-shards N=4 --max-replicas N=3 --walk N=1000 \
         --seed N=1 --buggy",
        "small-model sweep: exhaustive DFS per cell, then a seeded random walk",
        |a| {
            let (max_n, max_k) = (a.num("--max-shards"), a.num("--max-replicas"));
            if max_n == 0 || max_k == 0 {
                return Err("--max-shards and --max-replicas must be at least 1".into());
            }
            let scenarios = Scenario::parse(a.value("--scenario"))
                .map_or(Scenario::all().to_vec(), |sc| vec![sc]);
            let (budget, walk, seed) = (a.num("--budget"), a.num("--walk"), a.seed());
            Ok(sim_cmd::grid(&scenarios, budget, max_n, max_k, walk, seed, a.on("--buggy")))
        },
    ),
    cmd(
        "sim demo-bug",
        "--scenario SCENARIO=failover --shards N=1 --replicas N=1 --seed N=3",
        "fence off: the oracle must go red, shrink, and replay from JSON",
        |a| Ok(sim_cmd::demo_bug(&a.spec(a.seed()))),
    ),
    cmd(
        "batching",
        "--seconds S=1.5 --check FILE",
        "shards timed alone and summed, trace saturation (--check: vs a baseline report)",
        |a| Ok(perf::batching(a.num("--seconds"), a.given("--check"))),
    ),
    cmd("trace-overhead", "--check FILE", "trace recording cost, on vs off", |a| {
        Ok(perf::trace_overhead(a.given("--check")))
    }),
    cmd("micro", "", "micro-benchmarks of the building blocks (ns/iter)", |_| {
        micro::run();
        Ok(Outcome::default())
    }),
    cmd("help", "", "this list", |_| {
        print!("{}", usage());
        Ok(Outcome::default())
    }),
];

/// A parsed command line: the row it names, the flags given (in order;
/// `""` is a switch's value) and its operands. Every value is of its
/// flag's KIND.
struct Args {
    cmd: &'static Cmd,
    given: Vec<(String, String)>,
    operands: Vec<String>,
}

impl Args {
    fn on(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    /// The last value given for `flag`.
    fn given(&self, flag: &str) -> Option<&str> {
        self.given.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// The given value, else the default.
    fn value(&self, flag: &str) -> &str {
        self.given(flag).unwrap_or_else(|| {
            let spec =
                self.cmd.flag(flag).unwrap_or_else(|| panic!("{} has no {flag}", self.cmd.name));
            spec.split_once('=').map_or("", |(_, default)| default)
        })
    }

    fn num<T: FromStr>(&self, flag: &str) -> T {
        self.value(flag).parse().unwrap_or_else(|_| panic!("{flag} is checked by the parser"))
    }

    /// `--seed`, else `$CSAW_SEED`, else the command's default.
    fn seed(&self) -> u64 {
        let seed = self.num("--seed");
        self.given("--seed").map_or(env_seed(seed), |_| seed)
    }

    fn spec(&self, seed: u64) -> ScheduleSpec {
        let scenario = Scenario::parse(self.value("--scenario")).expect("checked by the parser");
        let spec = ScheduleSpec::new(scenario, self.num("--shards"), self.num("--replicas"), seed);
        if self.on("--buggy") {
            spec.with_fence_off()
        } else {
            spec
        }
    }

    /// The same line for `row`: the given flags `row` takes, no operands.
    fn to(&self, row: &'static Cmd) -> Args {
        let given = self.given.iter().filter(|(f, _)| row.flag(f).is_some());
        Args { cmd: row, given: given.cloned().collect(), operands: Vec::new() }
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (name, rest) = match argv {
        [] => return Err("no command given".into()),
        [sim, sub, rest @ ..] if sim == "sim" => (format!("sim {sub}"), rest),
        [name, rest @ ..] => (name.clone(), rest),
    };
    let cmd = FIGURES
        .iter()
        .chain(COMMANDS)
        .find(|c| c.name == name)
        .ok_or(format!("unknown command `{name}`"))?;
    let mut args = Args { cmd, given: Vec::new(), operands: Vec::new() };
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            args.operands.push(arg.clone());
            continue;
        }
        let spec = cmd.flag(arg).ok_or(format!("`{name}` takes no {arg}"))?;
        let kind = spec.split_once('=').map_or(spec, |(kind, _)| kind);
        let value = if kind.is_empty() {
            String::new()
        } else {
            match rest.next() {
                Some(v) if valid(kind, v) => v.clone(),
                Some(v) => return Err(format!("{arg} {kind}: `{v}` is not valid")),
                None => return Err(format!("{arg} needs a value ({kind})")),
            }
        };
        args.given.push((arg.clone(), value));
    }
    let operand = cmd.usage.split_whitespace().next().filter(|w| !w.starts_with("--"));
    let ok = match (operand, &cmd.body) {
        (None, _) => args.operands.is_empty(),
        (Some("NAME..."), Body::Each(rows)) => {
            args.operands.iter().all(|o| rows.iter().any(|r| r.name == o))
        }
        (Some(kind), _) => args.operands.len() == 1 && valid(kind, &args.operands[0]),
    };
    if !ok {
        return Err(format!("`{name}` does not take {:?}", args.operands));
    }
    Ok(args)
}

/// Run a parsed line: its body, or each selected row in turn. Returns
/// whether every gate held.
fn run(args: &Args) -> bool {
    match args.cmd.body {
        Body::Run(body) => match body(args) {
            Ok(out) => emit(out),
            Err(e) => {
                eprintln!("csaw-bench {}: {e}", args.cmd.name);
                exit(2)
            }
        },
        Body::Each(rows) => rows
            .iter()
            .filter(|r| args.operands.is_empty() || args.operands.iter().any(|o| o == r.name))
            .fold(true, |ok, row| run(&args.to(row)) & ok),
    }
}

/// The one writer: print and persist every report as
/// `results/<id>.json`, dump the files under `results/`, print the
/// failures. Returns whether there were none.
fn emit(out: Outcome) -> bool {
    for report in &out.reports {
        report.print();
        match report.write_json() {
            Ok(p) => println!("[written {}]", p.display()),
            Err(e) => eprintln!("[could not write results: {e}]"),
        }
    }
    for (name, contents) in &out.dumps {
        let path = Path::new("results").join(name);
        let dir = path.parent().expect("under results/");
        match fs::create_dir_all(dir).and_then(|()| fs::write(&path, contents)) {
            Ok(()) => eprintln!("dumped {}", path.display()),
            Err(e) => eprintln!("could not dump {}: {e}", path.display()),
        }
    }
    for failure in &out.failures {
        eprintln!("FAIL: {failure}");
    }
    out.failures.is_empty()
}

fn usage() -> String {
    let mut s = String::from("usage: csaw-bench <command> [flags]\n\n");
    for c in FIGURES.iter().chain(COMMANDS) {
        let line = format!("{} {}", c.name, c.usage);
        s += &format!("  {}\n      {}\n", line.trim_end(), c.about);
        if let (Body::Each(rows), true) = (&c.body, c.usage.starts_with("NAME")) {
            for row in rows.iter() {
                s += &format!("        {:<18} {}\n", row.name, row.about);
            }
        }
    }
    let scenarios = Scenario::all().map(Scenario::label).join(" | ");
    s + &format!(
        "\n--flag is a switch; --flag KIND=default takes a value (the default when absent).\n\
         N: a whole number; S: seconds; SCENARIO: {scenarios} (SCENARIOS: or all); FILE: a \
         path.\nWithout --seed, $CSAW_SEED (if set) replaces the default seed.\n\
         exit status: 0 every gate held, 1 a gate broke, 2 input not listed here.\n"
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprint!("csaw-bench: {e}\n\n{}", usage());
        exit(2)
    });
    exit(i32::from(!run(&args)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn rows() -> impl Iterator<Item = &'static Cmd> {
        FIGURES.iter().chain(COMMANDS).chain(ABLATIONS)
    }

    /// Every usage word is a flag, a known KIND with a default of that
    /// KIND, or a leading operand; no row takes a flag twice.
    #[test]
    fn every_usage_is_well_formed() {
        for c in rows() {
            let words: Vec<&str> = c.usage.split_whitespace().collect();
            for (i, w) in words.iter().enumerate() {
                if w.starts_with("--") {
                    assert!(!words[..i].contains(w), "{}: {w} twice", c.name);
                } else if i == 0 {
                    assert!(["FILE", "NAME..."].contains(w), "{}: operand {w}", c.name);
                } else {
                    let (kind, default) = w.split_once('=').unwrap_or((w, ""));
                    assert!(default.is_empty() || valid(kind, default), "{}: {w}", c.name);
                    assert!(valid(kind, "1") || valid(kind, "failover"), "{}: {w}", c.name);
                }
            }
        }
        let mut names: Vec<_> = rows().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows().count(), "two rows share a name");
    }

    #[test]
    fn help_lists_every_command_with_its_flags() {
        let text = usage();
        for c in FIGURES.iter().chain(COMMANDS) {
            let line = format!("{} {}", c.name, c.usage);
            assert!(text.contains(&format!("  {}\n", line.trim_end())), "{}", c.name);
        }
        for c in ABLATIONS {
            assert!(text.contains(c.name), "{}", c.name);
        }
    }

    #[test]
    fn flags_and_defaults() {
        assert_eq!(line("fig23a --seconds 2.5").unwrap().num::<f64>("--seconds"), 2.5);
        assert_eq!(line("fig23a").unwrap().num::<f64>("--seconds"), 8.0);
        let a = line("sim explore --schedules 50 --seed 1 --buggy").unwrap();
        assert_eq!((a.num::<u64>("--schedules"), a.seed()), (50, 1));
        assert!(a.on("--buggy") && !a.spec(1).fence);
        assert_eq!(a.spec(1).scenario, Scenario::Failover);
        let a = line("sim grid --scenario all --walk 0").unwrap();
        assert_eq!((a.value("--scenario"), a.num::<u64>("--walk")), ("all", 0));
        let a = line("batching --check results/batching_baseline.json --seconds 1.0").unwrap();
        assert_eq!(a.given("--check"), Some("results/batching_baseline.json"));
        assert_eq!(a.num::<f64>("--seconds"), 1.0);
        assert_eq!(line("trace-overhead").unwrap().given("--check"), None);
        let a = line("chaos --seed 7 --unreliable --seed 9 --requests 60").unwrap();
        assert_eq!((a.seed(), a.num::<usize>("--requests")), (9, 60));
        assert!(a.on("--unreliable") && !a.on("--conformance"));
        let a =
            line("sim dfs --scenario restore --budget 12 --compare --naive-cap 100000").unwrap();
        assert_eq!(a.spec(1).scenario, Scenario::Restore);
        assert!(a.on("--compare"));
        assert_eq!(a.num::<usize>("--naive-cap"), 100_000);
    }

    #[test]
    fn unknown_input_is_refused() {
        for bad in [
            "",
            "fig99",
            "sim",
            "sim wander",
            "ablations fault_toleranse",
            "sim explore --schedules abc",
            "sim explore --schedules",
            "sim explore --schedules -1",
            "sim explore --scenario nosuch",
            "sim explore --scenario all",
            "sim demo-bug --buggy",
            "sim replay",
            "sim replay a.json b.json",
            "fig23a --seconds 0",
            "fig23a --seconds nan",
            "fig23a --reps 3",
            "fig23a extra",
            "chaos --smoke",
            "batching --check",
            "batching --check --seconds",
            "reconfig --smoke=1",
            "all fig23a",
            "help me",
        ] {
            assert!(line(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn operands() {
        let a = line("sim replay a.json --scenario restore").unwrap();
        assert_eq!(a.operands, ["a.json"]);
        let a = line("ablations fanout fault_tolerance").unwrap();
        assert_eq!(a.operands, ["fanout", "fault_tolerance"]);
        assert!(line("ablations").unwrap().operands.is_empty());
    }

    /// `all` hands each figure the flags it takes, so a figure run alone
    /// and the same figure under `all` get the same settings.
    #[test]
    fn all_shares_each_figures_defaults() {
        let all = line("all").unwrap();
        for fig in FIGURES {
            for flag in fig.usage.split_whitespace().filter(|w| w.starts_with("--")) {
                if fig.flag(flag) != Some("") {
                    let alone = line(fig.name).unwrap();
                    assert_eq!(all.to(fig).value(flag), alone.value(flag), "{} {flag}", fig.name);
                }
            }
        }
        let all = line("all --seconds 3 --reps 2").unwrap();
        assert_eq!(all.to(&FIGURES[0]).num::<f64>("--seconds"), 3.0);
        assert_eq!(all.to(&FIGURES[0]).given("--reps"), None);
        let fig25ab = FIGURES.iter().find(|c| c.name == "fig25ab").unwrap();
        assert_eq!(all.to(fig25ab).num::<usize>("--reps"), 2);
    }
}
