//! `chl upgrade`: rewrite a `.chl` file of an earlier format version as the
//! current one, once, so every other verb can read it.

use chl_core::persist;

use crate::opts::Opts;
use crate::CliError;

pub const USAGE: &str = "\
usage: chl upgrade <in.chl> <out.chl>

Rewrites a .chl index of an earlier format version (v1, v2, v3), which no
other command reads, as the current version (v4); a v4 file is copied
unchanged. A label distance the current format cannot hold (past 2^32 - 1)
is refused, never truncated.
The result is fully validated before it is written, and it replaces
<out.chl> whole, so <out.chl> may be <in.chl>.";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &[], &[])?;
    let input = opts.positional(0, "input file argument")?;
    let output = opts.positional(1, "output file argument")?;
    opts.reject_extra_positionals(2)?;
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let upgraded = persist::upgrade(&bytes).map_err(|e| format!("cannot upgrade {input}: {e}"))?;
    persist::write_bytes(output, &upgraded).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "wrote {output}: {} bytes (.chl v{})",
        upgraded.len(),
        persist::VERSION
    );
    Ok(())
}
