//! Table 2: operator types used in each application, derived by running
//! the Kimbap compiler's classifier over the applications' built-in programs.
//!
//! Paper: LV ••, LD ••, MSF (trans only), CC-LP (adjacent only),
//! CC-SCLP ••, CC-SV (trans only), MIS (adjacent only).

use kimbap_bench::{print_row, print_title};
use kimbap_compiler::{classify_program, programs};

fn main() {
    print_title(
        "Table 2: operator types used in each application",
        "classified by the compiler from the programs' property-access keys",
    );
    print_row(&[
        "application".into(),
        "operators".into(),
        "adj".into(),
        "trans".into(),
    ]);
    let apps = [
        ("LV", programs::louvain_sketch()),
        ("LD", programs::leiden_sketch()),
        ("MSF", programs::msf_sketch()),
        ("CC-LP", programs::cc_lp()),
        ("CC-SCLP", programs::cc_sclp()),
        ("CC-SV", programs::cc_sv()),
        ("MIS", programs::mis()),
    ];
    let expected = [
        (true, true),
        (true, true),
        (false, true),
        (true, false),
        (true, true),
        (false, true),
        (true, false),
    ];
    for ((name, prog), (e_adj, e_trans)) in apps.into_iter().zip(expected) {
        let c = classify_program(&prog);
        let mark = |b: bool| if b { "*" } else { "" };
        print_row(&[
            name.into(),
            c.num_operators.to_string(),
            mark(c.uses_adjacent).into(),
            mark(c.uses_trans).into(),
        ]);
        assert_eq!(
            (c.uses_adjacent, c.uses_trans),
            (e_adj, e_trans),
            "{name} classification diverges from the paper's Table 2"
        );
    }
    println!("\nall seven rows match the paper's Table 2.");
}
