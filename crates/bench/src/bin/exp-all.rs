//! Run the experiments: with no arguments every table is written to
//! `results/<table>.csv`; `--only NAME` prints one experiment's tables
//! as CSV to stdout (names: `pas_bench::experiments::EXPERIMENTS`).
use pas_bench::experiments::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match args.as_slice() {
        [] => None,
        [flag, name] if flag == "--only" => EXPERIMENTS.iter().find(|(n, _)| n == name),
        _ => None,
    };
    if let Some((_, run)) = only {
        for table in run() {
            table.print();
            println!();
        }
    } else if args.is_empty() {
        let tables: Vec<_> = EXPERIMENTS.iter().flat_map(|(_, run)| run()).collect();
        for table in &tables {
            table.write_to("results".as_ref()).expect("write CSV");
            println!(
                "wrote results/{}.csv ({} rows)",
                table.name,
                table.rows.len()
            );
        }
        println!("{} tables total", tables.len());
    } else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "usage: exp-all [--only NAME]; NAME is one of {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
}
