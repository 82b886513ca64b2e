//! The `balance` CLI: explore the Kung (1985) model from the terminal.
//!
//! See `balance help` for usage.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = balance_bench::cli::dispatch(&args, &mut std::io::stdout().lock());
    if let Err(msg) = result {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}
