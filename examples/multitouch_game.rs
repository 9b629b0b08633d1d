//! A multi-touch iOS game on Cider: pinch-to-zoom and pan gestures
//! drive a 3D scene rendered through the diplomatic OpenGL ES library,
//! while a second, *domestic* thread in the same process streams frames
//! — the paper's §4.3 multi-persona showcase ("while one thread executes
//! complicated OpenGL ES rendering algorithms using the domestic
//! persona, another thread in the same app can simultaneously process
//! input data using the foreign persona").
//!
//! ```text
//! cargo run --example multitouch_game
//! ```

use cider_abi::persona::Persona;
use cider_apps::ciderpress::CiderPress;
use cider_apps::launcher::install_ipa;
use cider_apps::package::{build_ios_app, decrypt_ipa, DeviceKey};
use cider_core::persona::{persona_of, set_persona};
use cider_core::system::CiderSystem;
use cider_gfx::stack::{gfx, install_gfx, GfxConfig};
use cider_input::events::translate;
use cider_input::gestures::{
    synth_pan, synth_pinch, Gesture, GestureRecognizer,
};
use cider_kernel::profile::DeviceProfile;

fn main() {
    let mut sys = CiderSystem::new(DeviceProfile::nexus7());
    install_gfx(&mut sys, GfxConfig::default());

    let ipa = decrypt_ipa(
        &build_ios_app("com.example.game", "SpaceGame", "game_main", true),
        DeviceKey::from_jailbroken_device(),
    )
    .expect("decrypt");
    let binary = install_ipa(&mut sys, &ipa).expect("install");
    sys.kernel
        .register_program("game_main", std::sync::Arc::new(|_, _| 0));
    let mut cp = CiderPress::launch(&mut sys, &binary).expect("launch");
    let input_tid = cp.app.1;

    // The render thread: same process, switched to the domestic persona
    // for its entire GL-heavy lifetime.
    let render_tid = sys.kernel.spawn_thread(input_tid).expect("clone");
    let linux = sys.kernel.linux_personality();
    cider_core::persona::persona_ext_mut(&mut sys.kernel, render_tid)
        .expect("cloned persona ext")
        .install(Persona::Domestic, linux);
    set_persona(&mut sys.kernel, render_tid, Persona::Domestic)
        .expect("render thread goes domestic");
    println!(
        "one process, two personas: input thread = {}, render thread = {}",
        persona_of(&sys.kernel, input_tid).expect("thread"),
        persona_of(&sys.kernel, render_tid).expect("thread"),
    );

    // Set up the scene through the diplomatic GL library (input thread,
    // foreign persona — each call round-trips through set_persona).
    let lib = "OpenGLES.framework/OpenGLES";
    let ctx = sys
        .diplomat_call(input_tid, lib, "EAGLContext_initWithAPI", &[])
        .expect("ctx");
    sys.diplomat_call(input_tid, lib, "EAGLContext_setCurrentContext", &[ctx])
        .expect("current");
    sys.diplomat_call(
        input_tid,
        lib,
        "EAGLContext_renderbufferStorage",
        &[ctx, 1280, 800],
    )
    .expect("surface");

    // The player pinches to zoom, then pans the view.
    let mut recognizer = GestureRecognizer::new();
    let mut zoom = 1.0f32;
    let mut camera = (0i32, 0i32);
    let mut frames = 0u64;
    let gestures: Vec<Vec<_>> = vec![
        synth_pinch((640, 400), 80, 240, 8, 0),
        synth_pan((900, 600), (300, 200), 10, 2_000_000_000),
        synth_pinch((640, 400), 200, 100, 6, 4_000_000_000),
    ];
    for stream in gestures {
        for event in &stream {
            cp.deliver_input(&mut sys, event).expect("input");
            // The app drains its Mach event port and feeds the
            // recognisers, then the render thread draws a frame.
            while let Ok(ev) = cp.bridge.receive_app_event(&mut sys, input_tid)
            {
                recognizer.feed(&ev);
            }
            // Render thread (already domestic): straight host-library
            // calls, no diplomat round trip needed.
            let gl = sys.host.find_symbol("glDrawArrays").expect("gl").1;
            gl(&mut sys.kernel, render_tid, &[4, 0, 1200]).expect("draw");
            frames += 1;
        }
        for g in recognizer.recognized.drain(..) {
            match g {
                Gesture::Pinch { scale } => {
                    zoom *= scale;
                    println!("pinch: zoom now {zoom:.2}x");
                }
                Gesture::Pan { dx, dy } => {
                    camera.0 += dx;
                    camera.1 += dy;
                    println!("pan: camera now {camera:?}");
                }
                Gesture::Tap { x, y } => println!("tap at ({x},{y})"),
            }
        }
        sys.diplomat_call(
            input_tid,
            lib,
            "EAGLContext_presentRenderbuffer",
            &[],
        )
        .expect("present");
    }

    // Also exercise the event stream against the raw translation layer.
    let sample = synth_pan((0, 0), (10, 0), 2, 0);
    let _ios_events: Vec<_> = sample.iter().map(translate).collect();

    println!(
        "game loop done: {frames} draw calls, {} composited frames, \
         virtual time {:.2} ms",
        gfx(&sys.kernel).flinger.frames_presented,
        sys.kernel.clock.now_ns() as f64 / 1e6
    );
    assert!(zoom > 1.0, "net zoom in");
    cp.stop(&mut sys).expect("stop");
}
