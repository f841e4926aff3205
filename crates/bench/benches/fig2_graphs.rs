//! Regenerates Figure 2 of the paper: the Steensgaard vs. Andersen
//! points-to graphs of the five-assignment example program, printed as
//! adjacency lists and checked against the paper's shapes (Steensgaard:
//! one node `{p,q,r}` pointing to `{a,b,c}`; Andersen: `q` has out-degree
//! three while `p` and `r` stay precise).

use bootstrap_analyses::{andersen, steensgaard};
use bootstrap_workloads::figures;

fn main() {
    let program = figures::parse_figure(figures::FIG2);
    let v = |n: &str| program.var_named(n).unwrap();

    println!("Figure 2 reproduction — p=&a; q=&b; r=&c; q=p; q=r");
    println!();
    println!("Steensgaard points-to graph (nodes are equivalence classes):");
    let st = steensgaard::analyze(&program);
    let mut printed = std::collections::HashSet::new();
    for (class, members) in st.partitions() {
        let names: Vec<&str> = members.iter().map(|m| program.var(*m).name()).collect();
        if !printed.insert(class) {
            continue;
        }
        match st.pointee(class) {
            Some(p) => {
                let tgt: Vec<&str> = st
                    .members(p)
                    .iter()
                    .map(|m| program.var(*m).name())
                    .collect();
                println!("  {{{}}} -> {{{}}}", names.join(","), tgt.join(","));
            }
            None => println!("  {{{}}}", names.join(",")),
        }
    }
    assert_eq!(st.class_of(v("p")), st.class_of(v("q")));
    assert_eq!(st.class_of(v("q")), st.class_of(v("r")));
    assert_eq!(st.class_of(v("a")), st.class_of(v("c")));

    println!();
    println!("Andersen points-to graph (per-pointer points-to sets):");
    let an = andersen::analyze(&program);
    for n in ["p", "q", "r"] {
        let pts: Vec<String> = an
            .points_to_vars(v(n))
            .into_iter()
            .map(|o| program.var(o).name().to_string())
            .collect();
        println!("  {n} -> {{{}}}", pts.join(","));
    }
    assert_eq!(an.points_to_vars(v("p")).len(), 1);
    assert_eq!(an.points_to_vars(v("r")).len(), 1);
    assert_eq!(an.points_to_vars(v("q")).len(), 3, "q has out-degree three");

    println!();
    println!("ok: Steensgaard merges {{p,q,r}} into one node; Andersen keeps p and r precise.");
}
