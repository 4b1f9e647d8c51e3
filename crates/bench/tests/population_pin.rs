//! The generated population is pinned. Every `results/` file was
//! recorded on populations from `prepare_population`, so a change to the
//! vendored RNG or to the generator re-draws all of them; it must fail
//! here, not move the recorded tables unnoticed.

use fairjob_bench::prepare_population;
use fairjob_store::Value;

/// FNV-1a of every attribute name and every cell of
/// `prepare_population(500, 0xEDB7_2019)`, in row-major order.
const PINNED: u64 = 0x3d75_3b1e_4102_b0e1;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn prepare_population_draws_the_pinned_population() {
    let table = prepare_population(500, 0xEDB7_2019);
    assert_eq!(table.len(), 500);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for attr in table.schema().attributes() {
        fnv1a(&mut hash, attr.name.as_bytes());
        fnv1a(&mut hash, &[0]);
    }
    for row in 0..table.len() {
        for value in table.row(row).expect("row in range") {
            match value {
                Value::Cat(label) => {
                    fnv1a(&mut hash, b"c");
                    fnv1a(&mut hash, label.as_bytes());
                    fnv1a(&mut hash, &[0]);
                }
                Value::Num(x) => {
                    fnv1a(&mut hash, b"n");
                    fnv1a(&mut hash, &x.to_bits().to_le_bytes());
                }
                Value::Int(x) => {
                    fnv1a(&mut hash, b"i");
                    fnv1a(&mut hash, &x.to_le_bytes());
                }
            }
        }
    }
    assert_eq!(
        hash, PINNED,
        "prepare_population(500, 0xEDB7_2019) drew another population \
         (hash {hash:#018x}); the results/ files were recorded on the pinned one"
    );
}
