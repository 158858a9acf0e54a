//! One module per reproduced table/figure.

pub mod ablation;
pub mod datasets;
pub mod defense;
pub mod fig3_fig5_topk;
pub mod fig4_fig6_refined;
pub mod fig7_fig8_graph;
pub mod linkage_attack;
pub mod scale;
pub mod service;
pub mod snapshot_load;
pub mod table1;
pub mod theory_bounds;
