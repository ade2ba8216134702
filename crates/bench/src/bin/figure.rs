//! figure — prints one table or figure of the reconstructed evaluation.
//!
//! ```text
//! cargo run -p bench --release --bin figure -- <id> [--quick]
//! ```
//!
//! The id is one of `bench::figures::FIGURES`; `--quick` runs the reduced
//! sweep the golden tests use. An unknown or missing id, or any other
//! argument, prints the usage with the list of ids and exits 2.

use bench::figures::{by_id, FIGURES};
use bench::Opts;

fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    format!(
        "usage: figure <id> [--quick] [--help]\n\n  \
         <id>      one of: {}\n  \
         --quick   reduced sweep; used by smoke tests\n  \
         --help    show this help",
        ids.join(" ")
    )
}

fn fail(reason: &str) -> ! {
    eprintln!("error: {reason}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn main() {
    let mut opts = Opts::default();
    let mut id = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            _ if id.is_none() && !arg.starts_with('-') => id = Some(arg),
            other => fail(&format!("unrecognized argument `{other}`")),
        }
    }
    let Some(id) = id else {
        fail("no figure id given");
    };
    let Some(figure) = by_id(&id) else {
        fail(&format!("unknown figure id `{id}`"));
    };
    print!("{}", (figure.render)(&opts));
}
