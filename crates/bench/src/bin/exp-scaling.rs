//! The scaling sweeps and the `BENCH_*.json` perf records:
//!
//! ```text
//! exp-scaling [--bench-json [DIR]] [--smoke] [--only NAME]
//! ```
//!
//! Without `--bench-json` it prints the E4/E5 makespan sweep and every
//! record's quick-tier table. With it, each record is measured (at the
//! acceptance sizes — tens of minutes — or the seconds-scale `--smoke`
//! tier), written as `DIR/BENCH_<name>.json.tmp` (DIR defaults to
//! `.`), read back, and checked by its gate; only a record whose gate
//! holds is renamed over `DIR/BENCH_<name>.json`. `--only` picks one
//! record (see `pas_bench::records::RECORDS`). Flags go in any order;
//! DIR is the one argument that is not a flag. Bad arguments exit 2, a
//! failed gate 1 (its `.tmp` file is left for inspection).
use pas_bench::bench_file;
use pas_bench::experiments::scaling;
use pas_bench::harness::Tier;
use pas_bench::records::{parse_args, RECORDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!(
            "exp-scaling: {e}\nusage: exp-scaling [--bench-json [DIR]] [--smoke] [--only NAME]"
        );
        std::process::exit(2);
    });
    let records = RECORDS
        .iter()
        .filter(|r| args.only.is_none_or(|only| only == r.name));
    if args.tier == Tier::Quick {
        for table in scaling::run() {
            table.print();
            println!();
        }
        for record in records {
            (record.run)(Tier::Quick).0.print();
            println!();
        }
        return;
    }
    for record in records {
        let (table, file) = (record.run)(args.tier);
        table.print();
        let path = args.dir.join(record.file);
        let tmp = path.with_extension("json.tmp");
        let checked = std::fs::create_dir_all(&args.dir)
            .and_then(|()| std::fs::write(&tmp, file.render()))
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| bench_file::read(&tmp))
            .and_then(|doc| (record.gate)(&doc, &args.dir))
            .and_then(|()| std::fs::rename(&tmp, &path).map_err(|e| format!("rename: {e}")));
        if let Err(e) = checked {
            eprintln!("{}: {e}", tmp.display());
            std::process::exit(1);
        }
        eprintln!("wrote {} (gate holds)", path.display());
    }
}
