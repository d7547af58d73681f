//! `xicbench` — see the library docs.  Invoked as `xicbench serve ...` the
//! binary is the `xic` CLI instead: the `serve` workload's coordinator
//! spawns its shard workers from this very executable, so the workers are
//! always built from the same sources as the benchmark.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let (report, code) = xic_cli::run(args);
        if code == 0 {
            print!("{report}");
        } else {
            eprint!("{report}");
        }
        std::process::exit(code);
    }
    let code = match xicbench::parse_args(&args) {
        Ok(cfg) => xicbench::run(&cfg),
        Err(message) => {
            eprintln!("xicbench: {message}");
            2
        }
    };
    std::process::exit(code);
}
