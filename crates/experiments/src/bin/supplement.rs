//! Supplementary experiments: MRAI (in)sensitivity per enhancement,
//! then the jitter, processing-delay and policy ablations.
//! Usage: `supplement [quick|paper] [--trace <file.jsonl>]
//! [--bench <file.json>] [--jobs <n>] [--cache-dir <dir>]`
//! (scale default: paper). Exits 1 if any claim check fails.

use bgpsim_experiments::binopts::BinOptions;
use bgpsim_experiments::figures::{render_claims, supplement};

fn main() {
    let opts = BinOptions::from_cli();
    let scale = opts.scale();
    opts.init_runner();
    eprintln!("running supplementary sweeps at {scale:?} scale…");
    let sup = supplement::run(scale);
    println!("{}", sup.render());
    let claims = sup.claims();
    println!("{}", render_claims(&claims));
    opts.finish();
    match bgpsim_experiments::artifact::maybe_write_csv("supplement.csv", &sup.csv()) {
        Ok(Some(path)) => eprintln!("wrote {}", path.display()),
        Ok(None) => {}
        Err(err) => eprintln!("csv write failed: {err}"),
    }
    let failures = claims.iter().filter(|c| !c.pass).count();
    if failures > 0 {
        eprintln!("{failures} claim check(s) did not pass — see output above");
        std::process::exit(1);
    }
    eprintln!("all claim checks passed");
}
