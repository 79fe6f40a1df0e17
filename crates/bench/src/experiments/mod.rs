//! Experiment implementations, one module per table/figure.

pub mod audit;
pub mod decode;
pub mod faults;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod flexibility;
pub mod recovery;
pub mod regret;
pub mod runtime_opt;
pub mod shards;
pub mod table1;
